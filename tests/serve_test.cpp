// Tests for the serving subsystem (src/serve + the util/socket framing):
// protocol parsing and the derived-seed contract, the LRU design cache,
// the Service's bit-identity with the offline engine (solo, batched,
// across thread counts), error isolation inside a micro-batch, and the
// length-prefixed framing over a socketpair.
//
// The daemon/socket integration (real processes, real sockets, killed
// clients) lives in the tools.serve_roundtrip ctest; these tests pin the
// library-level contracts the daemon is built from, plus the in-process
// daemon's resilience to malformed frames (truncated/oversize headers,
// non-JSON payloads, unknown ops), the send order of pipelined solve
// responses, and a closed-loop throughput floor at the daemon's default
// options.

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "engine/builtin_scenarios.hpp"
#include "engine/engine.hpp"
#include "serve/design_cache.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve/service.hpp"
#include "util/json.hpp"
#include "util/metrics.hpp"
#include "util/socket.hpp"
#include "util/timer.hpp"

namespace npd::serve {
namespace {

// ------------------------------------------------------------- protocol

Json solve_request_doc(const std::string& id) {
  Json doc = Json::object();
  doc.set("schema", std::string(kRequestSchema))
      .set("id", id)
      .set("op", "solve")
      .set("scenario", "solver_sweep")
      .set("params", "n_lo=60;n_hi=60")
      .set("reps", std::int64_t{2});
  return doc;
}

TEST(ProtocolTest, ParsesFullSolveRequest) {
  Json doc = solve_request_doc("req-1");
  doc.set("seed", std::int64_t{99});
  const Request request = parse_request(doc);
  EXPECT_EQ(request.id, "req-1");
  EXPECT_EQ(request.op, Op::Solve);
  EXPECT_EQ(request.scenario, "solver_sweep");
  EXPECT_EQ(request.params, "n_lo=60;n_hi=60");
  EXPECT_EQ(request.reps, 2);
  ASSERT_TRUE(request.seed.has_value());
  EXPECT_EQ(*request.seed, 99u);
}

TEST(ProtocolTest, DefaultsOpSolveRepsOneNoSeed) {
  Json doc = Json::object();
  doc.set("schema", std::string(kRequestSchema))
      .set("id", "r")
      .set("scenario", "solver_sweep");
  const Request request = parse_request(doc);
  EXPECT_EQ(request.op, Op::Solve);
  EXPECT_EQ(request.reps, 1);
  EXPECT_TRUE(request.params.empty());
  EXPECT_FALSE(request.seed.has_value());
}

TEST(ProtocolTest, ParsesControlOps) {
  Json ping = Json::object();
  ping.set("schema", std::string(kRequestSchema))
      .set("id", "p")
      .set("op", "ping");
  EXPECT_EQ(parse_request(ping).op, Op::Ping);
  Json shutdown = Json::object();
  shutdown.set("schema", std::string(kRequestSchema))
      .set("id", "s")
      .set("op", "shutdown");
  EXPECT_EQ(parse_request(shutdown).op, Op::Shutdown);
  Json stats = Json::object();
  stats.set("schema", std::string(kRequestSchema))
      .set("id", "st")
      .set("op", "stats");
  EXPECT_EQ(parse_request(stats).op, Op::Stats);
}

TEST(ProtocolTest, RejectsMalformedRequests) {
  Json wrong_schema = solve_request_doc("r");
  wrong_schema.set("schema", "npd.request/2");
  EXPECT_THROW((void)parse_request(wrong_schema), std::invalid_argument);

  Json no_id = solve_request_doc("");
  EXPECT_THROW((void)parse_request(no_id), std::invalid_argument);

  Json bad_op = solve_request_doc("r");
  bad_op.set("op", "solve_twice");
  EXPECT_THROW((void)parse_request(bad_op), std::invalid_argument);

  Json no_scenario = Json::object();
  no_scenario.set("schema", std::string(kRequestSchema)).set("id", "r");
  EXPECT_THROW((void)parse_request(no_scenario), std::invalid_argument);

  Json zero_reps = solve_request_doc("r");
  zero_reps.set("reps", std::int64_t{0});
  EXPECT_THROW((void)parse_request(zero_reps), std::invalid_argument);

  Json negative_seed = solve_request_doc("r");
  negative_seed.set("seed", std::int64_t{-4});
  EXPECT_THROW((void)parse_request(negative_seed), std::invalid_argument);
}

TEST(ProtocolTest, DerivedSeedIsPureAndIdSensitive) {
  const std::uint64_t a = derive_request_seed(42, "req-1");
  EXPECT_EQ(a, derive_request_seed(42, "req-1"));
  EXPECT_NE(a, derive_request_seed(42, "req-2"));
  EXPECT_NE(a, derive_request_seed(43, "req-1"));
}

TEST(ProtocolTest, DerivedSeedFitsSignedInt64) {
  // The decimal form must survive `npd_run --seed` (signed parse): the
  // top bit is always clear, and the values still spread.
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 256; ++i) {
    const std::uint64_t seed =
        derive_request_seed(42, "req-" + std::to_string(i));
    EXPECT_EQ(seed >> 63, 0u);
    seen.insert(seed);
  }
  EXPECT_EQ(seen.size(), 256u);
}

TEST(ProtocolTest, ErrorAndControlResponseShapes) {
  const Json error = make_error_response("req-9", "boom");
  EXPECT_EQ(error.at("schema").as_string(), kResponseSchema);
  EXPECT_EQ(error.at("id").as_string(), "req-9");
  EXPECT_EQ(error.at("status").as_string(), "error");
  EXPECT_EQ(error.at("error").as_string(), "boom");

  Request ping;
  ping.id = "p";
  ping.op = Op::Ping;
  const Json ack = make_control_response(ping);
  EXPECT_EQ(ack.at("status").as_string(), "ok");
  EXPECT_EQ(ack.at("op").as_string(), "ping");

  Request stats;
  stats.id = "st";
  stats.op = Op::Stats;
  const Json stats_ack = make_control_response(stats);
  EXPECT_EQ(stats_ack.at("status").as_string(), "ok");
  EXPECT_EQ(stats_ack.at("op").as_string(), "stats");
}

// ---------------------------------------------------------- design cache

engine::ScenarioRegistry& test_registry() {
  static engine::ScenarioRegistry registry = [] {
    engine::ScenarioRegistry r;
    engine::register_builtin_scenarios(r);
    return r;
  }();
  return registry;
}

TEST(DesignCacheTest, KeySeparatesScenarioFromParams) {
  // The NUL separator means ("ab","") and ("a","b") cannot collide.
  EXPECT_NE(design_cache_key("ab", ""), design_cache_key("a", "b"));
  EXPECT_EQ(design_cache_key("a", "b"), design_cache_key("a", "b"));
}

TEST(DesignCacheTest, LruEvictsOldestAndCountsHits) {
  DesignCache cache(2);
  ResolvedDesign design{nullptr, engine::ScenarioParams({}), "h"};
  EXPECT_EQ(cache.find("a"), nullptr);  // miss 1
  (void)cache.insert("a", design);
  (void)cache.insert("b", design);
  EXPECT_NE(cache.find("a"), nullptr);  // hit 1; "a" is now MRU
  (void)cache.insert("c", design);      // evicts "b", not "a"
  EXPECT_NE(cache.find("a"), nullptr);  // hit 2
  EXPECT_EQ(cache.find("b"), nullptr);  // miss 2 (evicted)
  EXPECT_NE(cache.find("c"), nullptr);  // hit 3
  EXPECT_EQ(cache.size(), 2);
  EXPECT_EQ(cache.hits(), 3);
  EXPECT_EQ(cache.misses(), 2);
}

TEST(DesignCacheTest, ConfigHashIsStableAndConfigSensitive) {
  const engine::Scenario* scenario = test_registry().find("solver_sweep");
  ASSERT_NE(scenario, nullptr);
  engine::ScenarioParams params(scenario->params());
  const std::string base = config_hash("solver_sweep", params);
  EXPECT_EQ(base, config_hash("solver_sweep", params));
  engine::ScenarioParams changed(scenario->params());
  changed.set_packed("n_lo=60");
  EXPECT_NE(base, config_hash("solver_sweep", changed));
}

// -------------------------------------------------- service bit-identity

/// The service and server count into the process-global metrics
/// registry; each test records into a fresh, enabled registry and
/// leaves it off, so suites can run in any order.
class MetricsRegistryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    metrics::set_enabled(true);
    metrics::reset();
  }
  void TearDown() override {
    metrics::set_enabled(false);
    metrics::reset();
  }
};
using ServiceTest = MetricsRegistryTest;
using ServerStatsTest = MetricsRegistryTest;
using ServerLoadTest = MetricsRegistryTest;

Request solve_request(const std::string& id, std::uint64_t seed,
                      const std::string& params = "n_lo=60;n_hi=60",
                      Index reps = 1) {
  Request request;
  request.id = id;
  request.scenario = "solver_sweep";
  request.params = params;
  request.reps = reps;
  request.seed = seed;
  return request;
}

/// The offline reference: the same solve through the engine's plain
/// batch path, as the deterministic (no-perf) report bytes.
std::string offline_bytes(std::uint64_t seed, Index reps,
                          const std::vector<engine::ParamOverride>& overrides) {
  engine::BatchRequest request;
  request.scenario_names = {"solver_sweep"};
  request.config.seed = seed;
  request.config.reps = reps;
  request.config.threads = 1;
  request.overrides = overrides;
  return engine::run_batch(test_registry(), request)
      .to_json(false)
      .dump(2);
}

TEST_F(ServiceTest, ResponseReportMatchesOfflineRunBatch) {
  Service service(test_registry(), {42, 1, 64});
  const Json response = service.execute_one(solve_request("r1", 7));
  EXPECT_EQ(response.at("status").as_string(), "ok");
  EXPECT_EQ(response.at("seed").as_int(), 7);
  const std::string served = response.at("report").dump(2);
  EXPECT_EQ(served,
            offline_bytes(7, 1,
                          {{"solver_sweep", "n_lo", "60"},
                           {"solver_sweep", "n_hi", "60"}}));
}

TEST_F(ServiceTest, DerivedSeedIsUsedAndEchoed) {
  Service service(test_registry(), {42, 1, 64});
  Request request = solve_request("req-derive", 0);
  request.seed.reset();
  const Json response = service.execute_one(request);
  const std::uint64_t expected = derive_request_seed(42, "req-derive");
  EXPECT_EQ(static_cast<std::uint64_t>(response.at("seed").as_int()),
            expected);
}

TEST_F(ServiceTest, BatchedEqualsUnbatchedAcrossThreadCounts) {
  // One micro-batch of three requests on 4 threads vs each request
  // alone on 1 thread: every response's deterministic core must be
  // byte-identical (the engine's seed derivation does not care who
  // shares the worker pool).
  Service batched(test_registry(), {42, 4, 64});
  Service solo(test_registry(), {42, 1, 64});
  const std::vector<Request> requests = {
      solve_request("a", 7),
      solve_request("b", 7, "n_lo=60;n_hi=120", 2),
      solve_request("c", 8)};
  const std::vector<Json> together = batched.execute(requests);
  // Counted around the batched execute only; `solo` records later.
  const metrics::MetricsSnapshot counted = metrics::snapshot();
  ASSERT_EQ(together.size(), requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const Json alone = solo.execute_one(requests[i]);
    EXPECT_EQ(together[i].at("report").dump(2),
              alone.at("report").dump(2))
        << "request " << requests[i].id;
    EXPECT_EQ(together[i].at("config_hash").as_string(),
              alone.at("config_hash").as_string());
  }
  // The batch really was one batch.
  EXPECT_EQ(counted.counter("serve.batches"), 1);
  EXPECT_EQ(counted.counter("serve.requests"), 3);
}

TEST_F(ServiceTest, BadRequestFailsAloneInsideABatch) {
  Service service(test_registry(), {42, 2, 64});
  std::vector<Request> requests = {solve_request("good-1", 7),
                                   solve_request("poisoned", 7),
                                   solve_request("good-2", 7)};
  requests[1].scenario = "no_such_scenario";
  const std::vector<Json> responses = service.execute(requests);
  ASSERT_EQ(responses.size(), 3u);
  EXPECT_EQ(responses[0].at("status").as_string(), "ok");
  EXPECT_EQ(responses[1].at("status").as_string(), "error");
  EXPECT_NE(responses[1].at("error").as_string().find("unknown scenario"),
            std::string::npos);
  EXPECT_EQ(responses[2].at("status").as_string(), "ok");
  EXPECT_EQ(responses[0].at("report").dump(2),
            responses[2].at("report").dump(2));
}

TEST_F(ServiceTest, ControlOpsSkipTheEngine) {
  Service service(test_registry(), {42, 1, 64});
  Request ping;
  ping.id = "p";
  ping.op = Op::Ping;
  const Json ack = service.execute_one(ping);
  EXPECT_EQ(ack.at("status").as_string(), "ok");
  const metrics::MetricsSnapshot counted = metrics::snapshot();
  EXPECT_EQ(counted.counter("serve.jobs"), 0);
  EXPECT_EQ(counted.counter("serve.requests"), 0);
}

TEST_F(ServiceTest, RepeatedConfigHitsTheDesignCache) {
  Service service(test_registry(), {42, 1, 64});
  (void)service.execute_one(solve_request("a", 1));
  (void)service.execute_one(solve_request("b", 2));
  EXPECT_EQ(metrics::snapshot().counter("serve.design_cache.miss"), 1);
  EXPECT_EQ(metrics::snapshot().counter("serve.design_cache.hit"), 1);
  (void)service.execute_one(solve_request("c", 3, "n_lo=60;n_hi=120"));
  EXPECT_EQ(metrics::snapshot().counter("serve.design_cache.miss"), 2);
}

// ---------------------------------------------------------------- framing

TEST(FramingTest, RoundTripsOverASocketpair) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  net::Fd a(fds[0]);
  net::Fd b(fds[1]);

  const std::string small = "{\"x\":1}";
  std::string big(100'000, 'y');
  ASSERT_TRUE(net::write_frame(a, small));
  ASSERT_TRUE(net::write_frame(a, ""));
  ASSERT_TRUE(net::write_frame(a, big));

  EXPECT_EQ(net::read_frame(b).value_or("?"), small);
  EXPECT_EQ(net::read_frame(b).value_or("?"), "");
  EXPECT_EQ(net::read_frame(b).value_or("?"), big);

  a.close();
  EXPECT_FALSE(net::read_frame(b).has_value());  // clean EOF
  EXPECT_FALSE(net::write_frame(b, small));      // peer gone, no SIGPIPE
}

// ------------------------------------------------- malformed daemon input

std::string test_socket_path() {
  static int counter = 0;
  return "/tmp/npd_serve_test_" + std::to_string(::getpid()) + "_" +
         std::to_string(++counter) + ".sock";
}

/// One worker thread, no batching: the malformed-input and stats tests'
/// daemon.
ServerOptions unbatched_options() {
  ServerOptions options;
  options.threads = 1;
  options.batch_max = 1;
  return options;
}

ServerOptions listening_on(ServerOptions options, const std::string& path) {
  options.unix_path = path;
  return options;
}

/// An in-process daemon on a fresh Unix socket: `start()` in the
/// constructor (so connects never race the listener), `run()` on a
/// background thread, drained shutdown in `drain()` or the destructor.
struct ServerHarness {
  std::string path = test_socket_path();
  Server server;
  std::thread runner;

  explicit ServerHarness(ServerOptions options = unbatched_options())
      : server(test_registry(), listening_on(std::move(options), path)) {
    server.start();
    runner = std::thread([this] { (void)server.run(); });
  }
  ~ServerHarness() {
    (void)drain();
    ::unlink(path.c_str());
  }

  /// Shut down and join the daemon; returns the solve responses it sent
  /// (final: `run()` counts a response only after writing it).
  std::int64_t drain() {
    if (runner.joinable()) {
      server.request_shutdown();
      runner.join();
    }
    return server.responses_sent();
  }
};

Json ping_doc(const std::string& id) {
  Json doc = Json::object();
  doc.set("schema", std::string(kRequestSchema)).set("id", id).set("op",
                                                                   "ping");
  return doc;
}

std::optional<Json> round_trip(const net::Fd& fd, const std::string& payload) {
  if (!net::write_frame(fd, payload)) {
    return std::nullopt;
  }
  const std::optional<std::string> reply = net::read_frame(fd);
  if (!reply.has_value()) {
    return std::nullopt;
  }
  return Json::parse(*reply);
}

/// The daemon-liveness probe every malformed-input test ends with: a
/// fresh connection must still answer a ping.
void expect_still_serving(const std::string& path, const std::string& tag) {
  const net::Fd client = net::connect_unix(path);
  const std::optional<Json> ack = round_trip(client, ping_doc(tag).dump());
  ASSERT_TRUE(ack.has_value()) << "daemon stopped answering after " << tag;
  EXPECT_EQ(ack->at("status").as_string(), "ok");
  EXPECT_EQ(ack->at("op").as_string(), "ping");
}

TEST(ServerMalformedInputTest, SurvivesTruncatedLengthPrefix) {
  ServerHarness harness;
  {
    // Two bytes of a four-byte length header, then EOF: a torn frame the
    // reader must treat as "connection done", not a crash.
    net::Fd client = net::connect_unix(harness.path);
    const unsigned char half_header[2] = {0x00, 0x00};
    ASSERT_EQ(::send(client.get(), half_header, sizeof(half_header),
                     MSG_NOSIGNAL),
              static_cast<ssize_t>(sizeof(half_header)));
    client.close();
  }
  expect_still_serving(harness.path, "after-truncated-header");
}

TEST(ServerMalformedInputTest, SurvivesOversizeLengthHeader) {
  ServerHarness harness;
  {
    // A length header beyond kMaxFrameBytes is protocol corruption: the
    // reader drops the connection before sizing a buffer.
    net::Fd client = net::connect_unix(harness.path);
    const std::uint32_t oversize = net::kMaxFrameBytes + 1;
    const unsigned char header[4] = {
        static_cast<unsigned char>(oversize >> 24),
        static_cast<unsigned char>(oversize >> 16),
        static_cast<unsigned char>(oversize >> 8),
        static_cast<unsigned char>(oversize)};
    ASSERT_EQ(::send(client.get(), header, sizeof(header), MSG_NOSIGNAL),
              static_cast<ssize_t>(sizeof(header)));
  }
  expect_still_serving(harness.path, "after-oversize-header");
}

TEST(ServerMalformedInputTest, AnswersNonJsonPayloadWithErrorAndKeepsConnection) {
  ServerHarness harness;
  net::Fd client = net::connect_unix(harness.path);

  const std::optional<Json> error = round_trip(client, "this is { not json");
  ASSERT_TRUE(error.has_value());
  EXPECT_EQ(error->at("status").as_string(), "error");
  EXPECT_NE(error->at("error").as_string().find("bad frame"),
            std::string::npos);

  // The same connection keeps working after the bad payload...
  const std::optional<Json> ack = round_trip(client, ping_doc("p1").dump());
  ASSERT_TRUE(ack.has_value());
  EXPECT_EQ(ack->at("status").as_string(), "ok");
  // ...and so does the daemon as a whole.
  expect_still_serving(harness.path, "after-non-json-payload");
}

TEST(ServerMalformedInputTest, AnswersUnknownOpWithErrorEchoingTheId) {
  ServerHarness harness;
  net::Fd client = net::connect_unix(harness.path);

  Json doc = Json::object();
  doc.set("schema", std::string(kRequestSchema))
      .set("id", "weird-1")
      .set("op", "explode");
  const std::optional<Json> error = round_trip(client, doc.dump());
  ASSERT_TRUE(error.has_value());
  EXPECT_EQ(error->at("status").as_string(), "error");
  EXPECT_EQ(error->at("id").as_string(), "weird-1");

  const std::optional<Json> ack = round_trip(client, ping_doc("p2").dump());
  ASSERT_TRUE(ack.has_value());
  EXPECT_EQ(ack->at("status").as_string(), "ok");
  expect_still_serving(harness.path, "after-unknown-op");
}

// ------------------------------------------------------ live serve stats

TEST_F(ServerStatsTest, QueueDepthGaugeDrainsWithTheQueue) {
  ServerHarness harness;
  // Pipelined bursts on several connections keep the queue non-empty
  // while the single-request batches execute.
  constexpr int kConnections = 3;
  constexpr int kPerConnection = 4;
  std::vector<net::Fd> clients;
  for (int c = 0; c < kConnections; ++c) {
    clients.push_back(net::connect_unix(harness.path));
    for (int k = 0; k < kPerConnection; ++k) {
      Json doc = solve_request_doc("burst-" + std::to_string(c) + "-" +
                                   std::to_string(k));
      doc.set("reps", std::int64_t{1});
      ASSERT_TRUE(net::write_frame(clients.back(), doc.dump()));
    }
  }
  for (const net::Fd& client : clients) {
    for (int k = 0; k < kPerConnection; ++k) {
      const std::optional<std::string> reply = net::read_frame(client);
      ASSERT_TRUE(reply.has_value());
      EXPECT_EQ(Json::parse(*reply).at("status").as_string(), "ok");
    }
  }

  // Drained: the gauge must read the live depth, not a reader's stale
  // push-time level.
  Json probe = Json::object();
  probe.set("schema", std::string(kRequestSchema))
      .set("id", "stats-1")
      .set("op", "stats");
  const net::Fd client = net::connect_unix(harness.path);
  const std::optional<Json> stats = round_trip(client, probe.dump());
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->at("stats").at("queue_depth").as_int(), 0);
  const Json& gauges = stats->at("stats").at("metrics").at("gauges");
  ASSERT_NE(gauges.find("serve.queue.depth"), nullptr);
  EXPECT_EQ(gauges.at("serve.queue.depth").as_int(), 0);
  EXPECT_EQ(metrics::snapshot().counter("serve.requests"),
            kConnections * kPerConnection);
}

// ------------------------------------------------- pipelining and load

/// One small solve (n = 40, one rep): cheap enough that the daemon, not
/// the solver, sets the throughput.
Json load_request_doc(const std::string& id) {
  Json doc = solve_request_doc(id);
  doc.set("params", "n_lo=40;n_hi=40").set("reps", std::int64_t{1});
  return doc;
}

TEST_F(ServerLoadTest, PipelinedSolvesAnswerInSendOrder) {
  // Daemon defaults: micro-batches fan over the worker pool, yet one
  // connection's solve responses still leave in the order they arrived.
  ServerHarness harness(ServerOptions{});
  constexpr int kRequests = 20;
  const net::Fd client = net::connect_unix(harness.path);
  for (int k = 0; k < kRequests; ++k) {
    ASSERT_TRUE(net::write_frame(
        client, load_request_doc("order-" + std::to_string(k)).dump()));
  }
  for (int k = 0; k < kRequests; ++k) {
    const std::optional<std::string> reply = net::read_frame(client);
    ASSERT_TRUE(reply.has_value()) << "response " << k;
    const Json response = Json::parse(*reply);
    EXPECT_EQ(response.at("status").as_string(), "ok");
    EXPECT_EQ(response.at("id").as_string(), "order-" + std::to_string(k))
        << "wire position " << k;
  }
  EXPECT_EQ(harness.drain(), kRequests);
}

TEST_F(ServerLoadTest, ClosedLoopThroughputAtDaemonDefaults) {
  // Eight connections, each keeping one small solve in flight, against
  // a daemon at npd_serve's default options.
  constexpr int kClients = 8;
  constexpr int kPerClient = 250;
  ServerHarness harness(ServerOptions{});
  std::vector<int> answered(kClients, 0);
  std::vector<std::string> failure(kClients);
  const Timer clock;
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      const std::size_t slot = static_cast<std::size_t>(c);
      try {
        const net::Fd fd = net::connect_unix(harness.path);
        for (int k = 0; k < kPerClient; ++k) {
          const std::string id =
              "load-" + std::to_string(c) + "-" + std::to_string(k);
          const std::optional<Json> response =
              round_trip(fd, load_request_doc(id).dump());
          if (!response.has_value() ||
              response->at("status").as_string() != "ok" ||
              response->at("id").as_string() != id) {
            failure[slot] = "no ok response echoing " + id;
            return;
          }
          ++answered[slot];
        }
      } catch (const std::exception& error) {
        failure[slot] = error.what();
      }
    });
  }
  for (std::thread& client : clients) {
    client.join();
  }
  const double elapsed_s = clock.elapsed_seconds();
  for (int c = 0; c < kClients; ++c) {
    const std::size_t slot = static_cast<std::size_t>(c);
    EXPECT_EQ(answered[slot], kPerClient)
        << "client " << c << ": " << failure[slot];
  }
  EXPECT_EQ(harness.drain(), kClients * kPerClient);

  const double rate = kClients * kPerClient / elapsed_s;
  std::printf("closed loop: %d requests in %.3f s, %.0f req/s\n",
              kClients * kPerClient, elapsed_s, rate);
#if defined(NDEBUG) && !defined(NPD_SANITIZED_BUILD)
  // Optimized, uninstrumented builds only: debug and sanitizer builds
  // run the correctness half above.
  EXPECT_GE(rate, 1000.0);
#endif
}

}  // namespace
}  // namespace npd::serve
