#pragma once

/// \file protocol.hpp
/// The serving wire protocol: `npd.request/1` in, `npd.response/1` out.
///
/// Every frame on a serving connection (see util/socket.hpp for the
/// length-prefixed framing) carries one JSON document.  A request names
/// a scenario plus packed parameter overrides; the response embeds the
/// deterministic core of the same `npd.run_report/1` document that an
/// offline `npd_run --no-perf` would write for that solve — that shared
/// representation is what lets `tools.serve_roundtrip` compare served
/// and offline results byte for byte.
///
/// Request (`npd.request/1`):
/// ```json
/// {"schema": "npd.request/1", "id": "req-0017", "op": "solve",
///  "scenario": "solver_sweep", "params": "n_lo=80;n_hi=80",
///  "reps": 1, "seed": 12345}
/// ```
/// `op` is `"solve"` (default), `"ping"`, `"shutdown"`, or `"stats"`;
/// `params`, `reps` and `seed` are optional.  A `stats` request is
/// answered immediately (never batched) with the server's live
/// introspection block: uptime, queue depth, and the current
/// `npd.metrics/1` snapshot — see docs/serving.md.
///
/// Deterministic-seed contract: when a request carries no explicit
/// `seed`, the server derives one as
/// `derive_request_seed(server_seed, id)` — a pure function of the
/// daemon's `--seed` and the request id, independent of arrival order,
/// batching, and thread count.  The response echoes the seed it used,
/// so any served solve can be replayed offline with
/// `npd_run --seed <seed>`.
///
/// Response (`npd.response/1`):
/// ```json
/// {"schema": "npd.response/1", "id": "req-0017", "status": "ok",
///  "seed": 12345, "config_hash": "9c0f...", "report": { ... },
///  "perf": {"batch_requests": 4, "batch_jobs": 4}}
/// ```
/// `status` is `"ok"` or `"error"` (then `error` holds the message and
/// the solve fields are absent).  Everything before `perf` is
/// deterministic; `perf` is the one stamp that may vary run to run.

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "util/json.hpp"
#include "util/types.hpp"

namespace npd::serve {

inline constexpr std::string_view kRequestSchema = "npd.request/1";
inline constexpr std::string_view kResponseSchema = "npd.response/1";

/// Request verbs.  `Ping` answers without touching the engine (a
/// readiness probe); `Shutdown` asks the daemon to drain and exit;
/// `Stats` returns the live metrics snapshot without entering the
/// solve batch queue.
enum class Op { Solve, Ping, Shutdown, Stats };

/// One parsed `npd.request/1`.
struct Request {
  std::string id;
  Op op = Op::Solve;
  /// Registry name of the scenario to solve (required for `Solve`).
  std::string scenario;
  /// Packed parameter overrides, `"key=value[;key=value...]"` — the
  /// same format as the scenarios' `solver_params` strings.
  std::string params;
  Index reps = 1;
  /// Explicit base seed; when absent the server derives one from
  /// (server_seed, id).
  std::optional<std::uint64_t> seed;
};

/// Parse and validate one request document.  Throws
/// `std::invalid_argument` naming the offending member on a wrong
/// schema tag, a missing/empty id, an unknown op, a missing scenario on
/// a solve, a non-positive reps, or a negative seed.
[[nodiscard]] Request parse_request(const Json& doc);

/// The serving seed derivation: a SplitMix64 chain over the daemon seed
/// and the FNV-1a hash of the request id, masked to 63 bits so the
/// decimal form round-trips through `npd_run --seed` (parsed as a
/// signed 64-bit integer).  A pure function of its inputs — the
/// replayability contract of docs/serving.md.
[[nodiscard]] std::uint64_t derive_request_seed(std::uint64_t server_seed,
                                                std::string_view request_id);

/// Build the error response for `id` (empty id allowed: a frame that
/// did not even parse has no id to echo).
[[nodiscard]] Json make_error_response(std::string_view id,
                                       std::string_view message);

/// Build the acknowledgement for a `Ping`/`Shutdown` request.
[[nodiscard]] Json make_control_response(const Request& request);

}  // namespace npd::serve
