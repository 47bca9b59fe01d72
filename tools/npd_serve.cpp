// npd_serve — the long-lived reconstruction service.
//
// Listens on a Unix-domain socket (and/or localhost TCP), speaks the
// length-prefixed npd.request/1 → npd.response/1 protocol
// (docs/serving.md), keeps resolved designs resident in an LRU cache,
// micro-batches concurrent solve requests onto the engine's shared
// JobQueue worker pool, and derives per-request seeds deterministically
// from (--seed, request id) — so every served solve can be replayed
// offline with `npd_run --seed <derived>` and compared byte for byte
// (the tools.serve_roundtrip ctest does exactly that).
//
//   npd_serve --socket /tmp/npd.sock --threads 8
//   npd_serve --tcp 0 --port-file port.txt --daemonize --log serve.log
//
// Shutdown is always a drain, never a drop: SIGTERM/SIGINT, an
// op:"shutdown" request, --max-requests, or --idle-timeout-ms stop the
// accept loop, finish the queued work, flush the responses, then exit.

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <exception>
#include <optional>
#include <string>

#include "engine/builtin_scenarios.hpp"
#include "serve/server.hpp"
#include "tool_common.hpp"
#include "util/cli.hpp"
#include "util/heartbeat.hpp"
#include "util/metrics.hpp"
#include "util/profiler.hpp"
#include "util/timer.hpp"

namespace {

using namespace npd;

/// Set by the signal handlers; the server polls it between accepts.
std::atomic<bool> g_stop{false};

extern "C" void handle_stop_signal(int) { g_stop.store(true); }

void install_signal_handlers() {
  struct sigaction action {};
  action.sa_handler = handle_stop_signal;
  sigemptyset(&action.sa_mask);
  action.sa_flags = 0;  // no SA_RESTART: poll/accept must wake promptly
  (void)::sigaction(SIGTERM, &action, nullptr);
  (void)::sigaction(SIGINT, &action, nullptr);
}

/// Write the whole buffer to `fd`, retrying EINTR (the readiness pipe).
void write_fully(int fd, const std::string& text) {
  std::size_t written = 0;
  while (written < text.size()) {
    const ssize_t n =
        ::write(fd, text.data() + written, text.size() - written);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return;
    }
    written += static_cast<std::size_t>(n);
  }
}

/// Parent side of --daemonize: read the child's readiness line ("ok
/// <port>" or "err <message>") and relay it.
int await_daemon_ready(int read_fd) {
  std::string line;
  char buffer[256];
  while (true) {
    const ssize_t n = ::read(read_fd, buffer, sizeof(buffer));
    if (n < 0 && errno == EINTR) {
      continue;
    }
    if (n <= 0) {
      break;
    }
    line.append(buffer, static_cast<std::size_t>(n));
  }
  ::close(read_fd);
  if (line.rfind("ok", 0) == 0) {
    (void)std::fprintf(stderr, "npd_serve: daemon ready%s\n",
                       line.size() > 2 ? line.substr(2).c_str() : "");
    return 0;
  }
  (void)std::fprintf(stderr, "npd_serve: daemon failed to start: %s\n",
                     line.empty() ? "(no readiness report)" : line.c_str());
  return 1;
}

int run(int argc, char** argv) {
  CliParser cli("npd_serve",
                "Reconstruction daemon: serves npd.request/1 solves over "
                "a Unix-domain/localhost-TCP socket with request "
                "batching and resident designs.");
  const std::string& socket_path = cli.add_string(
      "socket", "", "Unix-domain socket path to listen on");
  const long long& tcp_port = cli.add_int(
      "tcp", -1, "localhost TCP port to listen on (0 = ephemeral, "
      "-1 = disabled); loopback only");
  const std::string& port_file = cli.add_string(
      "port-file", "", "write the bound TCP port to this file (how "
      "scripts learn an ephemeral --tcp 0 port)");
  const long long& threads = cli.add_int(
      "threads", 0, "solve worker threads (0 = all cores; responses are "
      "identical for any value)");
  const long long& seed = cli.add_int(
      "seed", 42, "server base seed; per-request seeds derive from "
      "(seed, request id)");
  const long long& batch_max = cli.add_int(
      "batch-max", 16, "max solve requests per micro-batch (1 disables "
      "batching)");
  const double& batch_window_ms = cli.add_double(
      "batch-window-ms", 1.0, "how long a queued request waits for "
      "batch companions (0 = no wait)");
  const long long& design_cache = cli.add_int(
      "design-cache", 64, "resident designs kept in the LRU cache");
  const long long& max_requests = cli.add_int(
      "max-requests", 0, "drain and exit after this many solve "
      "responses (0 = serve forever)");
  const double& idle_timeout_ms = cli.add_double(
      "idle-timeout-ms", 0.0, "drain and exit after this long with no "
      "connections and no queued work (0 = never)");
  const bool& daemonize = cli.add_flag(
      "daemonize", "fork to the background; the foreground process "
      "exits 0 only after the daemon is listening");
  const std::string& log_path = cli.add_string(
      "log", "", "with --daemonize: redirect the daemon's "
      "stdout/stderr here (default /dev/null)");
  const std::string& heartbeat_path = cli.add_string(
      "heartbeat", "", "write live progress (schema npd.heartbeat/1) "
      "to this file; responses count as jobs done");
  const long long& heartbeat_interval_ms = cli.add_int(
      "heartbeat-interval-ms", 200,
      "how often --heartbeat rewrites its file");
  const std::string& metrics_path = cli.add_string(
      "metrics", "", "write an npd.metrics/1 snapshot (request "
      "counters, queue-depth gauge, latency histograms) at shutdown");
  const double& metrics_interval_ms = cli.add_double(
      "metrics-interval-ms", 0.0, "with --metrics: also rewrite the "
      "snapshot file this often while serving (temp+rename, so "
      "watchers never read a torn write; 0 = shutdown only)");
  const std::string& profile_path = cli.add_string(
      "profile", "", "sample the daemon with a SIGPROF profiler and "
      "write folded stacks (schema npd.profile/1) at shutdown");
  const long long& profile_hz = cli.add_int(
      "profile-hz", 200, "sampling rate for --profile in samples/sec");
  const bool& quiet = cli.add_flag(
      "quiet", "suppress the startup and end-of-run summary lines "
      "(errors still print)");
  cli.parse(argc, argv);

  if (batch_max < 1) {
    throw std::invalid_argument("--batch-max: need at least 1");
  }
  if (seed < 0) {
    throw std::invalid_argument("--seed: need a non-negative seed");
  }
  if (heartbeat_interval_ms < 1) {
    throw std::invalid_argument(
        "--heartbeat-interval-ms: need a positive interval");
  }
  if (metrics_interval_ms < 0.0) {
    throw std::invalid_argument(
        "--metrics-interval-ms: need a non-negative interval");
  }
  if (metrics_interval_ms > 0.0 && metrics_path.empty()) {
    throw std::invalid_argument(
        "--metrics-interval-ms: needs --metrics FILE");
  }

  int ready_fd = -1;
  if (daemonize) {
    int pipe_fds[2];
    if (::pipe(pipe_fds) != 0) {
      throw std::runtime_error("npd_serve: pipe failed for --daemonize");
    }
    const pid_t pid = ::fork();
    if (pid < 0) {
      throw std::runtime_error("npd_serve: fork failed for --daemonize");
    }
    if (pid > 0) {
      ::close(pipe_fds[1]);
      return await_daemon_ready(pipe_fds[0]);
    }
    // Daemon child: own session, readiness pipe kept, console handed
    // back (a supervisor like `cmake -P` must not wait on our stdio).
    ::close(pipe_fds[0]);
    ready_fd = pipe_fds[1];
    (void)::setsid();
    const std::string sink = log_path.empty() ? "/dev/null" : log_path;
    (void)std::freopen("/dev/null", "r", stdin);
    (void)std::freopen(sink.c_str(), "a", stdout);
    (void)std::freopen(sink.c_str(), "a", stderr);
  }

  install_signal_handlers();
  // The daemon always records metrics: the live `op:"stats"` request,
  // the heartbeat and the end-of-run line read them, with or without a
  // --metrics file to export at shutdown.
  metrics::set_enabled(true);
  bool profiling = false;
  if (!profile_path.empty()) {
    profiling = prof::start(static_cast<int>(profile_hz));
    if (!profiling) {
      (void)std::fprintf(stderr,
                         "npd_serve: --profile: sampling profiler "
                         "unavailable; continuing without it\n");
    }
  }

  engine::ScenarioRegistry registry;
  engine::register_builtin_scenarios(registry);

  serve::ServerOptions options;
  options.unix_path = socket_path;
  options.tcp_port = static_cast<int>(tcp_port);
  options.threads = static_cast<Index>(threads);
  options.seed = static_cast<std::uint64_t>(seed);
  options.batch_max = static_cast<Index>(batch_max);
  options.batch_window_ms = batch_window_ms;
  options.design_cache_capacity = static_cast<Index>(design_cache);
  options.max_requests = max_requests;
  options.idle_timeout_ms = idle_timeout_ms;
  options.external_stop = &g_stop;

  serve::Server server(registry, options);
  try {
    server.start();
  } catch (const std::exception& error) {
    if (ready_fd >= 0) {
      write_fully(ready_fd, std::string("err ") + error.what());
      ::close(ready_fd);
    }
    throw;
  }

  if (!port_file.empty() && server.tcp_port() >= 0) {
    if (!tools::write_output(std::to_string(server.tcp_port()), port_file)) {
      return 1;
    }
  }
  // Solve responses count as jobs done, design-cache hits/misses fill
  // the cache fields.
  std::optional<heartbeat::PeriodicWriter> beat_writer;
  if (!heartbeat_path.empty()) {
    beat_writer.emplace(
        heartbeat_path, static_cast<double>(heartbeat_interval_ms),
        heartbeat::heartbeat_render(0, 1, max_requests,
                                    {{"serve.requests"},
                                     "serve.design_cache.hit",
                                     "serve.design_cache.miss"}));
  }
  std::optional<heartbeat::PeriodicWriter> metrics_writer;
  if (metrics_interval_ms > 0.0) {
    metrics_writer.emplace(metrics_path, metrics_interval_ms, [](bool) {
      return metrics::snapshot_json(metrics::snapshot()).dump(2);
    });
  }

  if (ready_fd >= 0) {
    std::string ready = "ok";
    if (server.tcp_port() >= 0) {
      ready += " tcp=" + std::to_string(server.tcp_port());
    }
    if (!socket_path.empty()) {
      ready += " socket=" + socket_path;
    }
    write_fully(ready_fd, ready);
    ::close(ready_fd);
  } else if (!quiet) {
    (void)std::fprintf(stderr, "npd_serve: listening%s%s\n",
                       socket_path.empty()
                           ? ""
                           : (" on " + socket_path).c_str(),
                       server.tcp_port() >= 0
                           ? (" tcp=" + std::to_string(server.tcp_port()))
                                 .c_str()
                           : "");
  }

  const Timer timer;
  const std::int64_t responses = server.run();

  if (beat_writer.has_value()) {
    beat_writer->stop();
  }
  if (metrics_writer.has_value()) {
    metrics_writer->stop();  // final snapshot after the drain
  } else if (!metrics_path.empty()) {
    if (!tools::write_output(
            metrics::snapshot_json(metrics::snapshot()).dump(2),
            metrics_path)) {
      return 1;
    }
    if (!quiet) {
      (void)std::fprintf(stderr, "[metrics written to %s]\n",
                         metrics_path.c_str());
    }
  }
  if (profiling) {
    prof::stop();
    const prof::Profile profile = prof::collect();
    if (!tools::write_output(prof::profile_json(profile).dump(2),
                             profile_path)) {
      return 1;
    }
    if (!quiet) {
      (void)std::fprintf(stderr, "[profile written to %s (%lld samples)]\n",
                         profile_path.c_str(),
                         static_cast<long long>(profile.samples));
    }
  }
  if (!quiet) {
    const metrics::MetricsSnapshot totals = metrics::snapshot();
    (void)std::fprintf(
        stderr,
        "npd_serve: %lld responses, %lld batches, %lld jobs, design "
        "cache %lld hits / %lld misses, %.2f s\n",
        static_cast<long long>(responses),
        static_cast<long long>(totals.counter("serve.batches")),
        static_cast<long long>(totals.counter("serve.jobs")),
        static_cast<long long>(totals.counter("serve.design_cache.hit")),
        static_cast<long long>(totals.counter("serve.design_cache.miss")),
        timer.elapsed_seconds());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& error) {
    (void)std::fprintf(stderr, "npd_serve: %s\n", error.what());
    return 2;
  }
}
