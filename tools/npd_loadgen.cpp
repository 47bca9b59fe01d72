// npd_loadgen — the scriptable protocol client for npd_serve.
//
// `--probe FILE` sends the request document(s) in FILE verbatim
// (pipelined when FILE holds an array) and writes the responses;
// `--probe-abort` disconnects right after sending (the
// killed-mid-request client of tools.serve_roundtrip);
// `--extract-report` peels the `report` member out of a response so it
// can be `cmp`ed against an offline `npd_run --no-perf` report;
// `--send-shutdown` asks the daemon to drain and exit.
//
//   npd_loadgen --socket /tmp/npd.sock --probe req.json --out resp.json
//   npd_loadgen --tcp 47000 --send-shutdown
//
// Serving load is generated and measured by the benchmark's
// `serve_mixed` workload (`python3 perfbench/run.py --workload
// serve_mixed`).

#include <chrono>
#include <cstdio>
#include <exception>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "serve/protocol.hpp"
#include "tool_common.hpp"
#include "util/cli.hpp"
#include "util/socket.hpp"
#include "util/timer.hpp"

namespace {

using namespace npd;

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

/// A document's string `id` ("" when absent or not a string — how the
/// daemon echoes the id of a request it could not parse).
std::string id_of(const Json& doc) {
  const Json* id = doc.find("id");
  return id != nullptr && id->is_string() ? id->as_string() : "";
}

/// `--probe`: send the document(s) in `path` verbatim (array =
/// pipelined burst) and write the responses in request order.
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

  // Match each response to the earliest unanswered request carrying its
  // id: solves come back in send order, but control answers may
  // overtake them, and two requests may share an id.
  std::vector<std::optional<Json>> responses(requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const std::optional<std::string> reply = net::read_frame(fd);
    if (!reply.has_value()) {
      throw std::runtime_error("--probe: connection closed after " +
                               std::to_string(i) + " of " +
                               std::to_string(requests.size()) +
                               " responses");
    }
    Json response = Json::parse(*reply);
    const std::string id = id_of(response);
    std::size_t slot = 0;
    while (slot < requests.size() &&
           (responses[slot].has_value() || id_of(requests[slot]) != id)) {
      ++slot;
    }
    if (slot == requests.size()) {
      throw std::runtime_error("--probe: response id '" + id +
                               "' matches no unanswered request");
    }
    responses[slot] = std::move(response);
  }

  // Emit in request order.
  Json output;
  if (doc.is_array()) {
    output = Json::array();
    for (std::optional<Json>& response : responses) {
      output.push_back(std::move(*response));
    }
  } else {
    output = std::move(*responses.front());
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
                "Scriptable protocol client for npd_serve: sends "
                "npd.request/1 documents verbatim, writes the responses, "
                "or asks the daemon to shut down.");
  const std::string& socket_path =
      cli.add_string("socket", "", "connect to this Unix-domain socket");
  const long long& tcp_port = cli.add_int(
      "tcp", -1, "connect to this localhost TCP port (when no --socket)");
  const double& wait_ready_ms = cli.add_double(
      "wait-ready-ms", 2000.0, "ping until the server answers, up to "
      "this long, before sending (0 = no wait)");
  const std::string& probe_path = cli.add_string(
      "probe", "", "send the npd.request/1 document(s) in this file "
      "verbatim (array = pipelined burst)");
  const bool& probe_abort = cli.add_flag(
      "probe-abort", "with --probe: disconnect right after sending, "
      "without reading responses (daemon-survival test)");
  const std::string& extract_report = cli.add_string(
      "extract-report", "", "with --probe: write the first response's "
      "'report' member here (pretty-printed, npd_run --no-perf bytes)");
  const std::string& out_path = cli.add_string(
      "out", "-", "with --probe: the response document(s) ('-' streams "
      "to stdout)");
  const bool& shutdown_flag = cli.add_flag(
      "send-shutdown", "send an op:\"shutdown\" request and exit");
  const bool& quiet = cli.add_flag(
      "quiet", "suppress the status line of --probe-abort and "
      "--send-shutdown (errors still print)");
  cli.parse(argc, argv);

  Endpoint endpoint;
  endpoint.socket_path = socket_path;
  endpoint.tcp_port = static_cast<int>(tcp_port);
  if (socket_path.empty() && tcp_port < 0) {
    throw std::invalid_argument("need an endpoint: --socket PATH or "
                                "--tcp PORT");
  }
  if (!shutdown_flag && probe_path.empty()) {
    throw std::invalid_argument("nothing to do: need --probe FILE or "
                                "--send-shutdown");
  }

  if (wait_ready_ms > 0.0) {
    wait_ready(endpoint, wait_ready_ms);
  }
  if (shutdown_flag) {
    return send_shutdown(endpoint, quiet);
  }
  return run_probe(endpoint, probe_path, probe_abort, out_path,
                   extract_report, quiet);
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
