// npd_loadgen — the serving load generator and protocol client.
//
// Drives an npd_serve daemon in closed loop (`--concurrency` workers,
// each sending the next request as soon as the previous response
// lands) or open loop (`--qps` paced arrivals regardless of response
// times), records a latency histogram, and writes an npd.serve_stats/1
// report with throughput and p50/p95/p99.
//
//   npd_loadgen --socket /tmp/npd.sock --concurrency 8 --duration 5
//   npd_loadgen --tcp 47000 --qps 500 --duration 10
//               --mix "solver_sweep:3:n_lo=80;n_hi=80,abl1:1"
//
// It is also the protocol's scriptable client: `--probe FILE` sends the
// request document(s) in FILE verbatim (pipelined when FILE holds an
// array) and writes the responses; `--probe-abort` disconnects right
// after sending (the killed-mid-request client of tools.serve_roundtrip);
// `--extract-report` peels the `report` member out of a response so it
// can be `cmp`ed against an offline `npd_run --no-perf` report;
// `--send-shutdown` asks the daemon to drain and exit.

#include <sys/socket.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <exception>
#include <map>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "rand/rng.hpp"
#include "serve/protocol.hpp"
#include "serve/stats.hpp"
#include "tool_common.hpp"
#include "util/cli.hpp"
#include "util/heartbeat.hpp"
#include "util/metrics.hpp"
#include "util/parse.hpp"
#include "util/socket.hpp"
#include "util/timer.hpp"

namespace {

using namespace npd;

/// The registry counter behind `--heartbeat`: one per response received.
constexpr const char* kResponsesCounter = "loadgen.responses";

/// One entry of the request mix.
struct MixEntry {
  std::string scenario;
  long long weight = 1;
  std::string params;
};

/// Parse one `--mix` entry: `scenario[:weight[:params]]` (params last,
/// so packed `key=value;...` strings pass through unsplit).
MixEntry parse_mix_entry(const std::string& entry) {
  MixEntry mix;
  const std::size_t first = entry.find(':');
  if (first == std::string::npos) {
    mix.scenario = entry;
  } else {
    mix.scenario = entry.substr(0, first);
    const std::size_t second = entry.find(':', first + 1);
    const std::string weight_text =
        entry.substr(first + 1, second == std::string::npos
                                    ? std::string::npos
                                    : second - first - 1);
    mix.weight = parse_int_value("--mix weight", weight_text);
    if (second != std::string::npos) {
      mix.params = entry.substr(second + 1);
    }
  }
  if (mix.scenario.empty() || mix.weight < 1) {
    throw std::invalid_argument("malformed --mix entry '" + entry +
                                "' (expected scenario[:weight[:params]])");
  }
  return mix;
}

struct Endpoint {
  std::string socket_path;
  int tcp_port = -1;
};

net::Fd connect_endpoint(const Endpoint& endpoint) {
  if (!endpoint.socket_path.empty()) {
    return net::connect_unix(endpoint.socket_path);
  }
  return net::connect_tcp_localhost(endpoint.tcp_port);
}

/// Poll the daemon with pings until it answers (fresh connection per
/// attempt — the daemon may not be listening yet at all).
void wait_ready(const Endpoint& endpoint, double timeout_ms) {
  const Timer timer;
  std::string last_error = "timed out";
  while (timer.elapsed_ms() < timeout_ms) {
    try {
      const net::Fd fd = connect_endpoint(endpoint);
      Json ping = Json::object();
      ping.set("schema", std::string(serve::kRequestSchema));
      ping.set("id", "ready-probe");
      ping.set("op", "ping");
      if (net::write_frame(fd, ping.dump())) {
        const std::optional<std::string> reply = net::read_frame(fd);
        if (reply.has_value()) {
          return;
        }
      }
      last_error = "connected but no ping reply";
    } catch (const std::exception& error) {
      last_error = error.what();
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  throw std::runtime_error("npd_loadgen: server not ready after " +
                           std::to_string(timeout_ms) + " ms (" +
                           last_error + ")");
}

/// Deterministic mix choice for request `seq`.
const MixEntry& pick_mix(const std::vector<MixEntry>& mix,
                         long long total_weight, std::uint64_t seed,
                         std::int64_t seq) {
  if (mix.size() == 1) {
    return mix.front();
  }
  const std::uint64_t draw =
      rand::splitmix64(seed ^ rand::splitmix64(
                                  static_cast<std::uint64_t>(seq))) %
      static_cast<std::uint64_t>(total_weight);
  std::uint64_t cumulative = 0;
  for (const MixEntry& entry : mix) {
    cumulative += static_cast<std::uint64_t>(entry.weight);
    if (draw < cumulative) {
      return entry;
    }
  }
  return mix.back();
}

std::string build_request_json(const std::string& id_prefix,
                               std::int64_t seq, const MixEntry& mix,
                               long long reps, long long fixed_seed) {
  Json request = Json::object();
  request.set("schema", std::string(serve::kRequestSchema));
  request.set("id", id_prefix + "-" + std::to_string(seq));
  request.set("op", "solve");
  request.set("scenario", mix.scenario);
  if (!mix.params.empty()) {
    request.set("params", mix.params);
  }
  if (reps != 1) {
    request.set("reps", reps);
  }
  if (fixed_seed >= 0) {
    request.set("seed", fixed_seed);
  }
  return request.dump();
}

/// True when the response parses as npd.response/1 with status "ok".
bool response_ok(const std::string& payload) {
  try {
    const Json doc = Json::parse(payload);
    const Json* status = doc.find("status");
    return status != nullptr && status->is_string() &&
           status->as_string() == "ok";
  } catch (const std::exception&) {
    return false;
  }
}

struct LoadConfig {
  Endpoint endpoint;
  std::vector<MixEntry> mix;
  long long total_weight = 0;
  Index concurrency = 4;
  double duration_s = 5.0;
  std::int64_t max_requests = 0;  // 0 = duration-bound only
  double qps = 0.0;               // > 0 selects the open loop
  long long reps = 1;
  long long fixed_seed = -1;
  std::string id_prefix = "req";
  std::uint64_t mix_seed = 1;
};

/// Per-worker tallies, merged after the join.
struct WorkerResult {
  serve::LatencyRecorder latency;
  serve::TimelineRecorder timeline;
  Index ok = 0;
  Index errors = 0;
};

/// Closed loop: each worker owns one connection and keeps exactly one
/// request in flight.
void closed_worker(const LoadConfig& config, const Timer& clock,
                   std::atomic<std::int64_t>& next_seq,
                   WorkerResult& result) {
  const net::Fd fd = connect_endpoint(config.endpoint);
  while (clock.elapsed_seconds() < config.duration_s) {
    const std::int64_t seq = next_seq.fetch_add(1);
    if (config.max_requests > 0 && seq >= config.max_requests) {
      return;
    }
    const MixEntry& mix = pick_mix(config.mix, config.total_weight,
                                   config.mix_seed, seq);
    const std::string payload = build_request_json(
        config.id_prefix, seq, mix, config.reps, config.fixed_seed);
    const Timer request_timer;
    if (!net::write_frame(fd, payload)) {
      ++result.errors;
      return;  // server gone
    }
    const std::optional<std::string> reply = net::read_frame(fd);
    if (!reply.has_value()) {
      ++result.errors;
      return;
    }
    const double latency_s = request_timer.elapsed_seconds();
    result.latency.record(latency_s);
    result.timeline.record(clock.elapsed_seconds(), latency_s);
    if (response_ok(*reply)) {
      ++result.ok;
    } else {
      ++result.errors;
    }
    metrics::counter(kResponsesCounter);
  }
}

/// Open loop: each worker paces `qps / concurrency` arrivals on its own
/// connection; a receiver thread matches responses to send times by
/// request id, so a slow response never holds back the arrival process.
void open_worker(const LoadConfig& config, Index worker, const Timer& clock,
                 std::atomic<std::int64_t>& next_seq, WorkerResult& result) {
  const net::Fd fd = connect_endpoint(config.endpoint);
  const double worker_qps =
      config.qps / static_cast<double>(config.concurrency);
  const double period_s = 1.0 / worker_qps;

  std::mutex in_flight_mutex;
  std::map<std::string, double> in_flight;  // id -> send time (clock s)
  std::atomic<bool> sender_done{false};

  std::thread receiver([&] {
    while (true) {
      const std::optional<std::string> reply = net::read_frame(fd);
      if (!reply.has_value()) {
        return;
      }
      const double now_s = clock.elapsed_seconds();
      std::string id;
      bool ok = false;
      try {
        const Json doc = Json::parse(*reply);
        const Json* id_member = doc.find("id");
        if (id_member != nullptr && id_member->is_string()) {
          id = id_member->as_string();
        }
        const Json* status = doc.find("status");
        ok = status != nullptr && status->is_string() &&
             status->as_string() == "ok";
      } catch (const std::exception&) {
      }
      double sent_s = -1.0;
      {
        const std::lock_guard<std::mutex> lock(in_flight_mutex);
        const auto it = in_flight.find(id);
        if (it != in_flight.end()) {
          sent_s = it->second;
          in_flight.erase(it);
        }
      }
      if (sent_s >= 0.0) {
        result.latency.record(now_s - sent_s);
        result.timeline.record(now_s, now_s - sent_s);
      }
      if (ok) {
        ++result.ok;
      } else {
        ++result.errors;
      }
      metrics::counter(kResponsesCounter);
      bool drained = false;
      {
        const std::lock_guard<std::mutex> lock(in_flight_mutex);
        drained = sender_done.load() && in_flight.empty();
      }
      if (drained) {
        return;
      }
    }
  });

  // Deterministic arrival schedule: worker w sends at offsets
  // (w + k*concurrency) / qps — a uniform interleave across workers.
  double next_send_s =
      static_cast<double>(worker) / config.qps;
  bool peer_gone = false;
  Index send_errors = 0;  // folded in after the receiver joins (no race)
  while (clock.elapsed_seconds() < config.duration_s) {
    const double wait_s = next_send_s - clock.elapsed_seconds();
    if (wait_s > 0) {
      std::this_thread::sleep_for(std::chrono::duration<double>(wait_s));
      continue;
    }
    next_send_s += period_s;
    const std::int64_t seq = next_seq.fetch_add(1);
    if (config.max_requests > 0 && seq >= config.max_requests) {
      break;
    }
    const MixEntry& mix = pick_mix(config.mix, config.total_weight,
                                   config.mix_seed, seq);
    const std::string id = config.id_prefix + "-" + std::to_string(seq);
    const std::string payload = build_request_json(
        config.id_prefix, seq, mix, config.reps, config.fixed_seed);
    {
      const std::lock_guard<std::mutex> lock(in_flight_mutex);
      in_flight[id] = clock.elapsed_seconds();
    }
    if (!net::write_frame(fd, payload)) {
      peer_gone = true;
      ++send_errors;
      const std::lock_guard<std::mutex> lock(in_flight_mutex);
      in_flight.erase(id);
      break;
    }
  }
  sender_done.store(true);

  // Drain window: give outstanding responses a moment, then half-close
  // so the receiver unblocks even if the server lost them.
  const Timer drain_timer;
  while (!peer_gone && drain_timer.elapsed_seconds() < 2.0) {
    {
      const std::lock_guard<std::mutex> lock(in_flight_mutex);
      if (in_flight.empty()) {
        break;
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  (void)::shutdown(fd.get(), SHUT_RDWR);
  receiver.join();
  result.errors += send_errors;
  {
    const std::lock_guard<std::mutex> lock(in_flight_mutex);
    result.errors += static_cast<Index>(in_flight.size());  // lost in drain
  }
}

/// `--probe`: send the document(s) in `path` verbatim (array =
/// pipelined burst) and collect the responses by id.
int run_probe(const Endpoint& endpoint, const std::string& path,
              bool probe_abort, const std::string& out_path,
              const std::string& extract_report_path, bool quiet) {
  const Json doc = Json::parse(tools::read_file(path));
  std::vector<Json> requests;
  if (doc.is_array()) {
    for (std::size_t i = 0; i < doc.size(); ++i) {
      requests.push_back(doc.at(i));
    }
  } else {
    requests.push_back(doc);
  }
  if (requests.empty()) {
    throw std::invalid_argument("--probe: no requests in '" + path + "'");
  }

  net::Fd fd = connect_endpoint(endpoint);
  for (const Json& request : requests) {
    if (!net::write_frame(fd, request.dump())) {
      throw std::runtime_error("--probe: server closed the connection");
    }
  }
  if (probe_abort) {
    // The killed-mid-request client: vanish with responses pending and
    // let the daemon prove it survives the dead peer.
    fd.close();
    if (!quiet) {
      (void)std::fprintf(stderr,
                         "npd_loadgen: sent %zu request%s and aborted "
                         "the connection (--probe-abort)\n",
                         requests.size(), requests.size() == 1 ? "" : "s");
    }
    return 0;
  }

  std::map<std::string, Json> by_id;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const std::optional<std::string> reply = net::read_frame(fd);
    if (!reply.has_value()) {
      throw std::runtime_error("--probe: connection closed after " +
                               std::to_string(i) + " of " +
                               std::to_string(requests.size()) +
                               " responses");
    }
    Json response = Json::parse(*reply);
    const Json* id = response.find("id");
    by_id[id != nullptr && id->is_string() ? id->as_string()
                                           : std::to_string(i)] =
        std::move(response);
  }

  // Emit in request order (responses may interleave across batches).
  Json output;
  if (doc.is_array()) {
    output = Json::array();
    for (const Json& request : requests) {
      const Json* id = request.find("id");
      const auto it =
          by_id.find(id != nullptr && id->is_string() ? id->as_string() : "");
      output.push_back(it != by_id.end() ? it->second : Json());
    }
  } else {
    output = by_id.begin()->second;
  }
  if (!tools::write_output(output.dump(2), out_path)) {
    return 1;
  }

  if (!extract_report_path.empty()) {
    const Json& first = doc.is_array() ? output.at(0) : output;
    const Json* report = first.find("report");
    if (report == nullptr) {
      const Json* error = first.find("error");
      throw std::runtime_error(
          "--extract-report: response has no report (" +
          std::string(error != nullptr && error->is_string()
                          ? error->as_string()
                          : "status not ok") +
          ")");
    }
    if (!tools::write_output(report->dump(2), extract_report_path)) {
      return 1;
    }
  }
  return 0;
}

int send_shutdown(const Endpoint& endpoint, bool quiet) {
  const net::Fd fd = connect_endpoint(endpoint);
  Json request = Json::object();
  request.set("schema", std::string(serve::kRequestSchema));
  request.set("id", "ctl-shutdown");
  request.set("op", "shutdown");
  if (!net::write_frame(fd, request.dump())) {
    throw std::runtime_error("--send-shutdown: server unreachable");
  }
  const std::optional<std::string> reply = net::read_frame(fd);
  if (!reply.has_value()) {
    throw std::runtime_error("--send-shutdown: no acknowledgement");
  }
  if (!quiet) {
    (void)std::fprintf(stderr, "npd_loadgen: shutdown acknowledged\n");
  }
  return 0;
}

int run(int argc, char** argv) {
  CliParser cli("npd_loadgen",
                "Load generator and protocol client for npd_serve: "
                "closed/open-loop traffic with latency percentiles "
                "(npd.serve_stats/1), plus scripted probe requests.");
  const std::string& socket_path =
      cli.add_string("socket", "", "connect to this Unix-domain socket");
  const long long& tcp_port = cli.add_int(
      "tcp", -1, "connect to this localhost TCP port (when no --socket)");
  const long long& concurrency =
      cli.add_int("concurrency", 4, "worker connections");
  const double& duration =
      cli.add_double("duration", 5.0, "measurement window in seconds");
  const long long& max_requests = cli.add_int(
      "requests", 0, "stop after this many requests (0 = duration-bound)");
  const double& qps = cli.add_double(
      "qps", 0.0, "open-loop arrival rate (0 = closed loop: each worker "
      "keeps one request in flight)");
  const std::string& mix_arg = cli.add_string(
      "mix", "solver_sweep:1:n_lo=80;n_hi=80",
      "request mix: scenario[:weight[:params]][,...] with packed params "
      "key=value;...");
  const long long& reps =
      cli.add_int("reps", 1, "repetitions per request");
  const long long& fixed_seed = cli.add_int(
      "seed", -1, "explicit per-request seed (-1 = let the server derive "
      "one per request id)");
  const long long& mix_seed = cli.add_int(
      "mix-seed", 1, "seed for the deterministic mix choice per request");
  const std::string& id_prefix =
      cli.add_string("id-prefix", "req", "request id prefix");
  const double& wait_ready_ms = cli.add_double(
      "wait-ready-ms", 2000.0, "ping until the server answers, up to "
      "this long, before generating load (0 = no wait)");
  const std::string& out_path = cli.add_string(
      "out", "npd_loadgen_stats.json",
      "npd.serve_stats/1 report path ('-' streams to stdout); in "
      "--probe mode, the response document(s)");
  const std::string& probe_path = cli.add_string(
      "probe", "", "send the npd.request/1 document(s) in this file "
      "verbatim (array = pipelined burst) instead of generating load");
  const bool& probe_abort = cli.add_flag(
      "probe-abort", "with --probe: disconnect right after sending, "
      "without reading responses (daemon-survival test)");
  const std::string& extract_report = cli.add_string(
      "extract-report", "", "with --probe: write the first response's "
      "'report' member here (pretty-printed, npd_run --no-perf bytes)");
  const bool& shutdown_flag = cli.add_flag(
      "send-shutdown", "send an op:\"shutdown\" request and exit");
  const std::string& heartbeat_path = cli.add_string(
      "heartbeat", "", "write live progress (schema npd.heartbeat/1): "
      "responses count as jobs done");
  const bool& quiet = cli.add_flag(
      "quiet", "suppress the end-of-run summary line (errors still "
      "print)");
  cli.parse(argc, argv);

  Endpoint endpoint;
  endpoint.socket_path = socket_path;
  endpoint.tcp_port = static_cast<int>(tcp_port);
  if (socket_path.empty() && tcp_port < 0) {
    throw std::invalid_argument("need an endpoint: --socket PATH or "
                                "--tcp PORT");
  }
  if (concurrency < 1) {
    throw std::invalid_argument("--concurrency: need at least 1 worker");
  }
  if (qps < 0.0) {
    throw std::invalid_argument("--qps: need a non-negative rate");
  }

  if (wait_ready_ms > 0.0) {
    wait_ready(endpoint, wait_ready_ms);
  }
  if (shutdown_flag) {
    return send_shutdown(endpoint, quiet);
  }
  if (!probe_path.empty()) {
    return run_probe(endpoint, probe_path, probe_abort, out_path,
                     extract_report, quiet);
  }

  LoadConfig config;
  config.endpoint = endpoint;
  for (const std::string& entry : split_list(mix_arg, ',')) {
    config.mix.push_back(parse_mix_entry(entry));
  }
  if (config.mix.empty()) {
    throw std::invalid_argument("--mix: need at least one entry");
  }
  for (const MixEntry& entry : config.mix) {
    config.total_weight += entry.weight;
  }
  config.concurrency = static_cast<Index>(concurrency);
  config.duration_s = duration;
  config.max_requests = max_requests;
  config.qps = qps;
  config.reps = reps;
  config.fixed_seed = fixed_seed;
  config.id_prefix = id_prefix;
  config.mix_seed = static_cast<std::uint64_t>(mix_seed);

  std::optional<heartbeat::PeriodicWriter> beat_writer;
  if (!heartbeat_path.empty()) {
    metrics::set_enabled(true);
    const std::int64_t jobs_total =
        max_requests > 0 ? max_requests
                         : static_cast<std::int64_t>(qps * duration);
    beat_writer.emplace(heartbeat_path, 200.0,
                        heartbeat::heartbeat_render(
                            0, 1, jobs_total, {{kResponsesCounter}, "", ""}));
  }

  const Timer clock;
  std::atomic<std::int64_t> next_seq{0};
  std::vector<WorkerResult> results(
      static_cast<std::size_t>(config.concurrency));
  std::vector<std::thread> workers;
  workers.reserve(results.size());
  for (Index w = 0; w < config.concurrency; ++w) {
    workers.emplace_back([&, w] {
      WorkerResult& result = results[static_cast<std::size_t>(w)];
      try {
        if (config.qps > 0.0) {
          open_worker(config, w, clock, next_seq, result);
        } else {
          closed_worker(config, clock, next_seq, result);
        }
      } catch (const std::exception& error) {
        ++result.errors;
        (void)std::fprintf(stderr, "npd_loadgen: worker %lld: %s\n",
                           static_cast<long long>(w), error.what());
      }
    });
  }
  for (std::thread& worker : workers) {
    worker.join();
  }
  const double wall_s = clock.elapsed_seconds();
  if (beat_writer.has_value()) {
    beat_writer->stop();
  }

  serve::LoadStats stats;
  stats.mode = config.qps > 0.0 ? "open" : "closed";
  stats.concurrency = config.concurrency;
  stats.target_qps = config.qps;
  stats.duration_seconds = wall_s;
  for (const WorkerResult& result : results) {
    stats.ok += result.ok;
    stats.errors += result.errors;
    stats.latency.merge(result.latency);
    stats.timeline.merge(result.timeline);
  }
  stats.requests = stats.ok + stats.errors;

  if (!tools::write_output(serve::serve_stats_json(stats).dump(2),
                           out_path)) {
    return 1;
  }
  if (!quiet) {
    (void)std::fprintf(
        stderr,
        "npd_loadgen: %lld requests (%lld ok, %lld errors) in %.2f s, "
        "%.1f req/s, p50 %.2f ms, p95 %.2f ms, p99 %.2f ms\n",
        static_cast<long long>(stats.requests),
        static_cast<long long>(stats.ok),
        static_cast<long long>(stats.errors), wall_s,
        wall_s > 0.0 ? static_cast<double>(stats.requests) / wall_s : 0.0,
        stats.latency.percentile_ms(0.50), stats.latency.percentile_ms(0.95),
        stats.latency.percentile_ms(0.99));
    if (!tools::writes_to_stdout(out_path)) {
      (void)std::fprintf(stderr, "[stats written to %s]\n",
                         out_path.c_str());
    }
  }
  return stats.errors == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& error) {
    (void)std::fprintf(stderr, "npd_loadgen: %s\n", error.what());
    return 2;
  }
}
