# CTest driver for the served-vs-offline bit-identity contract
# (docs/serving.md):
#
#   1. start an unbatched daemon A (--threads 1, --batch-max 1) and an
#      aggressively batching daemon B (--threads 4, --batch-max 8,
#      --batch-window-ms 50) with the same --seed,
#   2. solve one request on A, read the derived seed out of the
#      response, replay it offline via `npd_run --no-perf --seed <seed>`
#      and require the embedded report to be byte-identical,
#   3. abort a client mid-request against A (requests sent, connection
#      dropped before the responses) and prove A still answers,
#   4. send B a pipelined burst sharing one connection — same request
#      id first, so its derived seed matches A's — and require its
#      report bytes to equal A's (batched vs unbatched, 1 thread vs 4),
#      plus at least one response proving a micro-batch actually formed
#      (perf.batch_requests >= 2) and an unknown-scenario request in the
#      middle answered with status "error" without hurting neighbours,
#      and a repeated request id whose two responses each pair with
#      their own request (the echoed explicit seeds 7 then 8),
#   5. probe B with op:"stats" — answered on the reader thread with a
#      live npd.metrics/1 snapshot whose serve.latency_seconds
#      histogram saw the burst — then drain both daemons with
#      op:"shutdown" and require B's periodic --metrics writer to
#      leave a valid snapshot on disk.
#
# Inputs: -DNPD_RUN -DNPD_SERVE -DNPD_LOADGEN -DWORK_DIR

foreach(var NPD_RUN NPD_SERVE NPD_LOADGEN WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "missing -D${var}=...")
  endif()
endforeach()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

set(SOCK_A "${WORK_DIR}/a.sock")
set(SOCK_B "${WORK_DIR}/b.sock")

function(run_checked log_name)
  execute_process(COMMAND ${ARGN}
    RESULT_VARIABLE result
    OUTPUT_VARIABLE output
    ERROR_VARIABLE output)
  file(WRITE "${WORK_DIR}/${log_name}.log" "${output}")
  if(NOT result EQUAL 0)
    message(FATAL_ERROR "command failed (${result}): ${ARGN}\n${output}")
  endif()
  set(LAST_OUTPUT "${output}" PARENT_SCOPE)
endfunction()

function(require_identical a b what)
  file(READ "${a}" bytes_a)
  file(READ "${b}" bytes_b)
  if(NOT bytes_a STREQUAL bytes_b)
    message(FATAL_ERROR "${what}: '${a}' and '${b}' differ")
  endif()
  message(STATUS "${what}: byte-identical")
endfunction()

function(json_field out file)
  file(READ "${file}" document)
  string(JSON value ERROR_VARIABLE json_error GET "${document}" ${ARGN})
  if(json_error)
    message(FATAL_ERROR "'${file}' ${ARGN}: ${json_error}")
  endif()
  set(${out} "${value}" PARENT_SCOPE)
endfunction()

# 1. Two daemons, same server seed, opposite batching/threading posture.
#    The idle timeout is a leak-proofing backstop: even a failing test
#    run leaves no daemon behind.
run_checked(serve_a "${NPD_SERVE}" --daemonize
  --socket "${SOCK_A}" --threads 1 --batch-max 1 --batch-window-ms 0
  --seed 42 --idle-timeout-ms 60000 --log "${WORK_DIR}/serve_a.log")
run_checked(serve_b "${NPD_SERVE}" --daemonize
  --socket "${SOCK_B}" --threads 4 --batch-max 8 --batch-window-ms 50
  --seed 42 --idle-timeout-ms 60000 --log "${WORK_DIR}/serve_b.log"
  --metrics "${WORK_DIR}/serve_b.metrics.json" --metrics-interval-ms 100)

# 2. One request on A; replay the derived seed offline.
set(REQ_PARAMS "n_lo=80;n_hi=80")
file(WRITE "${WORK_DIR}/req1.json"
  "{\"schema\":\"npd.request/1\",\"id\":\"roundtrip-1\",\"op\":\"solve\",\"scenario\":\"solver_sweep\",\"params\":\"${REQ_PARAMS}\",\"reps\":2}\n")
run_checked(probe_a "${NPD_LOADGEN}" --socket "${SOCK_A}"
  --probe "${WORK_DIR}/req1.json" --out "${WORK_DIR}/resp_a.json"
  --extract-report "${WORK_DIR}/report_served_a.json"
  --wait-ready-ms 10000)

json_field(resp_schema "${WORK_DIR}/resp_a.json" schema)
json_field(resp_status "${WORK_DIR}/resp_a.json" status)
json_field(resp_hash "${WORK_DIR}/resp_a.json" config_hash)
json_field(derived_seed "${WORK_DIR}/resp_a.json" seed)
if(NOT resp_schema STREQUAL "npd.response/1" OR NOT resp_status STREQUAL "ok")
  message(FATAL_ERROR
    "unexpected response: schema '${resp_schema}' status '${resp_status}'")
endif()
if(resp_hash STREQUAL "")
  message(FATAL_ERROR "response carries no config_hash")
endif()
message(STATUS "served solve ok: derived seed ${derived_seed}, "
  "config ${resp_hash}")

run_checked(offline "${NPD_RUN}"
  --scenarios solver_sweep --reps 2 --threads 1
  --seed "${derived_seed}"
  --params "solver_sweep.n_lo=80,solver_sweep.n_hi=80"
  --no-perf --out "${WORK_DIR}/report_offline.json")
require_identical("${WORK_DIR}/report_served_a.json"
  "${WORK_DIR}/report_offline.json"
  "served response vs offline npd_run with the derived seed")

# 3. The killed-mid-request client: send two solves, vanish without
#    reading, then prove the daemon still answers on a new connection.
file(WRITE "${WORK_DIR}/req_abort.json"
  "[{\"schema\":\"npd.request/1\",\"id\":\"abort-1\",\"scenario\":\"solver_sweep\",\"params\":\"${REQ_PARAMS}\"},
{\"schema\":\"npd.request/1\",\"id\":\"abort-2\",\"scenario\":\"solver_sweep\",\"params\":\"${REQ_PARAMS}\"}]\n")
run_checked(abort "${NPD_LOADGEN}" --socket "${SOCK_A}"
  --probe "${WORK_DIR}/req_abort.json" --probe-abort --wait-ready-ms 10000)
run_checked(probe_a_again "${NPD_LOADGEN}" --socket "${SOCK_A}"
  --probe "${WORK_DIR}/req1.json" --out "${WORK_DIR}/resp_a2.json"
  --extract-report "${WORK_DIR}/report_served_a2.json"
  --wait-ready-ms 10000)
require_identical("${WORK_DIR}/report_served_a2.json"
  "${WORK_DIR}/report_offline.json"
  "daemon answer after a killed-mid-request client")

# 4. Pipelined burst on B: roundtrip-1 first (same id + config as on A),
#    distinct designs behind it, one poisoned request in the middle.
file(WRITE "${WORK_DIR}/req_burst.json"
  "[{\"schema\":\"npd.request/1\",\"id\":\"roundtrip-1\",\"scenario\":\"solver_sweep\",\"params\":\"${REQ_PARAMS}\",\"reps\":2},
{\"schema\":\"npd.request/1\",\"id\":\"burst-1\",\"scenario\":\"solver_sweep\",\"params\":\"${REQ_PARAMS}\"},
{\"schema\":\"npd.request/1\",\"id\":\"burst-2\",\"scenario\":\"solver_sweep\",\"params\":\"n_lo=60;n_hi=60\"},
{\"schema\":\"npd.request/1\",\"id\":\"burst-bad\",\"scenario\":\"no_such_scenario\"},
{\"schema\":\"npd.request/1\",\"id\":\"burst-3\",\"scenario\":\"solver_sweep\",\"params\":\"${REQ_PARAMS}\",\"seed\":7},
{\"schema\":\"npd.request/1\",\"id\":\"burst-3\",\"scenario\":\"solver_sweep\",\"params\":\"${REQ_PARAMS}\",\"seed\":8}]\n")
run_checked(burst "${NPD_LOADGEN}" --socket "${SOCK_B}"
  --probe "${WORK_DIR}/req_burst.json" --out "${WORK_DIR}/resp_burst.json"
  --extract-report "${WORK_DIR}/report_served_b.json"
  --wait-ready-ms 10000)
require_identical("${WORK_DIR}/report_served_b.json"
  "${WORK_DIR}/report_offline.json"
  "batched 4-thread daemon vs unbatched 1-thread daemon vs offline")

json_field(burst_batch "${WORK_DIR}/resp_burst.json" 0 perf batch_requests)
if(burst_batch LESS 2)
  message(FATAL_ERROR
    "burst never formed a micro-batch (batch_requests ${burst_batch})")
endif()
json_field(bad_status "${WORK_DIR}/resp_burst.json" 3 status)
json_field(bad_error "${WORK_DIR}/resp_burst.json" 3 error)
if(NOT bad_status STREQUAL "error" OR
   NOT bad_error MATCHES "unknown scenario")
  message(FATAL_ERROR
    "poisoned request: status '${bad_status}', error '${bad_error}'")
endif()
json_field(neighbour_status "${WORK_DIR}/resp_burst.json" 4 status)
json_field(explicit_seed "${WORK_DIR}/resp_burst.json" 4 seed)
if(NOT neighbour_status STREQUAL "ok" OR NOT explicit_seed EQUAL 7)
  message(FATAL_ERROR "explicit-seed neighbour: status "
    "'${neighbour_status}', seed ${explicit_seed}")
endif()
# The same id again: each response pairs with its own request.
json_field(repeat_seed "${WORK_DIR}/resp_burst.json" 5 seed)
if(NOT repeat_seed EQUAL 8)
  message(FATAL_ERROR "repeated id burst-3: entry 5 echoes seed "
    "${repeat_seed}, expected 8")
endif()
message(STATUS
  "burst: micro-batch of ${burst_batch}, error isolated, seeds echoed "
  "per request under a repeated id")

# 4b. Live introspection: op:"stats" on B is answered on the reader
#     thread with the daemon's uptime/queue block and a full
#     npd.metrics/1 snapshot whose latency histogram has absorbed the
#     burst just served.
file(WRITE "${WORK_DIR}/req_stats.json"
  "{\"schema\":\"npd.request/1\",\"id\":\"stats-1\",\"op\":\"stats\"}\n")
run_checked(stats_probe "${NPD_LOADGEN}" --socket "${SOCK_B}"
  --probe "${WORK_DIR}/req_stats.json" --out "${WORK_DIR}/resp_stats.json"
  --wait-ready-ms 10000)
json_field(stats_status "${WORK_DIR}/resp_stats.json" status)
json_field(stats_op "${WORK_DIR}/resp_stats.json" op)
if(NOT stats_status STREQUAL "ok" OR NOT stats_op STREQUAL "stats")
  message(FATAL_ERROR
    "stats probe: status '${stats_status}', op '${stats_op}'")
endif()
json_field(stats_sent "${WORK_DIR}/resp_stats.json" stats responses_sent)
json_field(stats_metrics_schema "${WORK_DIR}/resp_stats.json"
  stats metrics schema)
if(NOT stats_metrics_schema STREQUAL "npd.metrics/1")
  message(FATAL_ERROR "live metrics schema '${stats_metrics_schema}'")
endif()
json_field(latency_count "${WORK_DIR}/resp_stats.json"
  stats metrics histograms serve.latency_seconds count)
if(latency_count LESS 1)
  message(FATAL_ERROR
    "serve.latency_seconds empty in the live snapshot (${latency_count})")
endif()
message(STATUS "stats probe: ${stats_sent} responses served, "
  "latency histogram count ${latency_count}")

# 5. Drain both daemons.  B's periodic writer must leave an on-disk
#    npd.metrics/1 snapshot that also carries the latency histogram
#    (poll briefly: the final write happens as the daemon exits).
run_checked(shutdown_a "${NPD_LOADGEN}" --socket "${SOCK_A}" --send-shutdown)
run_checked(shutdown_b "${NPD_LOADGEN}" --socket "${SOCK_B}" --send-shutdown)
set(disk_latency 0)
foreach(attempt RANGE 100)
  if(EXISTS "${WORK_DIR}/serve_b.metrics.json")
    file(READ "${WORK_DIR}/serve_b.metrics.json" disk_doc)
    string(JSON disk_latency ERROR_VARIABLE disk_error
      GET "${disk_doc}" histograms serve.latency_seconds count)
    if(NOT disk_error AND disk_latency GREATER_EQUAL 1)
      break()
    endif()
  endif()
  execute_process(COMMAND "${CMAKE_COMMAND}" -E sleep 0.1)
endforeach()
if(disk_latency LESS 1)
  message(FATAL_ERROR
    "on-disk snapshot never showed serve.latency_seconds (${disk_latency})")
endif()
json_field(disk_schema "${WORK_DIR}/serve_b.metrics.json" schema)
if(NOT disk_schema STREQUAL "npd.metrics/1")
  message(FATAL_ERROR "on-disk snapshot schema '${disk_schema}'")
endif()
message(STATUS "on-disk snapshot: npd.metrics/1, latency count "
  "${disk_latency}")
message(STATUS "serve roundtrip: OK")
