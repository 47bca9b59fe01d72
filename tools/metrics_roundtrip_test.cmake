# CTest driver for the metrics/profiler out-of-band contract:
#
#   1. run a batch single-process (--no-perf) as the reference,
#   2. run it again with --metrics + --profile + a fast heartbeat and
#      require the report bytes to be identical — observability must
#      never leak into results,
#   3. validate the metrics snapshot (schema npd.metrics/1, the
#      jobs.executed counter equal to the batch's job count), the final
#      heartbeat as its projection (jobs_done == jobs_total ==
#      jobs.executed), and the profile (schema npd.profile/1, samples
#      captured, at least one folded stack symbolized down to an npd::
#      engine frame),
#   4. npd_launch the batch over 3 shards with --metrics: merged report
#      bytes identical again, the shard snapshots folded into one
#      deterministic merge with the full job count, and the merged
#      snapshot embedded in the final telemetry block.
#
# The workload is sized (~40 jobs, several hundred ms of engine CPU on
# the CI box) so the 500 Hz profiler reliably lands samples inside the
# solver, not just in process startup.
#
# Inputs: -DNPD_RUN=<npd_run> -DNPD_LAUNCH=<npd_launch> -DWORK_DIR=<dir>

foreach(var NPD_RUN NPD_LAUNCH WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "missing -D${var}=...")
  endif()
endforeach()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

set(BATCH_ARGS
  --scenarios fixed_m --reps 10 --seed 19
  --params fixed_m.n=2000,fixed_m.m_points=4
  --no-perf)
set(EXPECTED_JOBS 40)  # reps * m_points

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

# json_field(<out-var> <file> <member>...) — parse-or-die JSON access.
function(json_field out file)
  file(READ "${file}" document)
  string(JSON value ERROR_VARIABLE json_error GET "${document}" ${ARGN})
  if(json_error)
    message(FATAL_ERROR "'${file}' ${ARGN}: ${json_error}")
  endif()
  set(${out} "${value}" PARENT_SCOPE)
endfunction()

# Require an npd.metrics/1 snapshot whose jobs.executed counter equals
# the batch's job count.
function(check_metrics_snapshot file what)
  json_field(schema "${file}" schema)
  if(NOT schema STREQUAL "npd.metrics/1")
    message(FATAL_ERROR "'${file}': schema '${schema}'")
  endif()
  json_field(executed "${file}" counters jobs.executed)
  if(NOT executed EQUAL EXPECTED_JOBS)
    message(FATAL_ERROR
      "'${file}': jobs.executed is ${executed}, expected ${EXPECTED_JOBS}")
  endif()
  message(STATUS "${what}: npd.metrics/1, jobs.executed=${executed}")
endfunction()

# 1. Reference report, no observability.
run_checked(reference "${NPD_RUN}" ${BATCH_ARGS} --threads 2
  --out "${WORK_DIR}/reference.json")

# 2. Same batch with the full observability kit attached.
run_checked(instrumented "${NPD_RUN}" ${BATCH_ARGS} --threads 2
  --metrics "${WORK_DIR}/metrics.json"
  --profile "${WORK_DIR}/profile.json" --profile-hz 500
  --heartbeat "${WORK_DIR}/heartbeat.json" --heartbeat-interval-ms 100
  --out "${WORK_DIR}/instrumented.json")
require_identical("${WORK_DIR}/instrumented.json" "${WORK_DIR}/reference.json"
  "npd_run with --metrics/--profile vs without")
if(NOT LAST_OUTPUT MATCHES "\\[metrics written to ")
  message(FATAL_ERROR "no metrics confirmation line:\n${LAST_OUTPUT}")
endif()
if(NOT LAST_OUTPUT MATCHES "\\[profile written to .* \\(([0-9]+) samples\\)\\]")
  message(FATAL_ERROR "no profile confirmation line:\n${LAST_OUTPUT}")
endif()

# 3a. The metrics snapshot counted every job exactly once, and the final
#     heartbeat is its projection: jobs_done == jobs_total ==
#     jobs.executed (nothing was replayed from a cache).
check_metrics_snapshot("${WORK_DIR}/metrics.json" "single-process metrics")
json_field(beat_done "${WORK_DIR}/heartbeat.json" done)
json_field(beat_jobs_done "${WORK_DIR}/heartbeat.json" jobs_done)
json_field(beat_jobs_total "${WORK_DIR}/heartbeat.json" jobs_total)
json_field(snapshot_executed "${WORK_DIR}/metrics.json" counters jobs.executed)
if(NOT beat_done STREQUAL "ON" OR
   NOT beat_jobs_done EQUAL snapshot_executed OR
   NOT beat_jobs_total EQUAL snapshot_executed)
  message(FATAL_ERROR "final heartbeat done=${beat_done} "
    "jobs_done=${beat_jobs_done} jobs_total=${beat_jobs_total}, expected "
    "done and both equal to the snapshot's jobs.executed=${snapshot_executed}")
endif()
message(STATUS "heartbeat: final projection jobs_done=jobs_total="
  "jobs.executed=${snapshot_executed}")

# 3b. The profile captured real samples and symbolized the engine.
json_field(profile_schema "${WORK_DIR}/profile.json" schema)
if(NOT profile_schema STREQUAL "npd.profile/1")
  message(FATAL_ERROR "profile schema '${profile_schema}'")
endif()
json_field(profile_hz "${WORK_DIR}/profile.json" hz)
if(NOT profile_hz EQUAL 500)
  message(FATAL_ERROR "profile hz ${profile_hz}, expected 500")
endif()
json_field(profile_samples "${WORK_DIR}/profile.json" samples)
if(profile_samples LESS 1)
  message(FATAL_ERROR "profiler captured no samples")
endif()
file(READ "${WORK_DIR}/profile.json" profile_doc)
string(JSON stack_count LENGTH "${profile_doc}" stacks)
if(stack_count LESS 1)
  message(FATAL_ERROR "profile has no folded stacks")
endif()
# Sum of folded-stack counts must account for every sample, and at
# least one stack must reach a symbolized npd:: engine frame (this is
# what ENABLE_EXPORTS on npd_run buys; without it dladdr sees only
# [unknown] frames).
set(counted 0)
set(engine_frames 0)
math(EXPR last_stack "${stack_count} - 1")
foreach(i RANGE 0 ${last_stack})
  string(JSON one_count GET "${profile_doc}" stacks ${i} count)
  string(JSON one_stack GET "${profile_doc}" stacks ${i} stack)
  math(EXPR counted "${counted} + ${one_count}")
  if(one_stack MATCHES "npd::")
    math(EXPR engine_frames "${engine_frames} + 1")
  endif()
endforeach()
if(NOT counted EQUAL profile_samples)
  message(FATAL_ERROR
    "folded stacks count ${counted} samples, header says ${profile_samples}")
endif()
if(engine_frames LESS 1)
  message(FATAL_ERROR
    "no folded stack contains an npd:: engine frame — symbolization broke")
endif()
message(STATUS "profile: npd.profile/1, ${profile_samples} samples over "
  "${stack_count} stacks (${engine_frames} with engine frames)")

# 4. Supervised launch: 3 shard children each writing a snapshot, the
#    supervisor folding them into one deterministic merge.
run_checked(launched "${NPD_LAUNCH}" ${BATCH_ARGS}
  --procs 3 --runner "${NPD_RUN}"
  --workdir "${WORK_DIR}/launch"
  --metrics "${WORK_DIR}/merged_metrics.json"
  --heartbeat-interval-ms 100
  --out "${WORK_DIR}/launched.json")
require_identical("${WORK_DIR}/launched.json" "${WORK_DIR}/reference.json"
  "npd_launch --metrics 3-proc auto-merge vs single process")
if(NOT LAST_OUTPUT MATCHES "\\[merged metrics written to ")
  message(FATAL_ERROR "no merged-metrics confirmation line:\n${LAST_OUTPUT}")
endif()
if(NOT LAST_OUTPUT MATCHES "telemetry \\{\"schema\":\"npd.telemetry/1\"")
  message(FATAL_ERROR "no final telemetry block:\n${LAST_OUTPUT}")
endif()
if(NOT LAST_OUTPUT MATCHES "\"metrics\"")
  message(FATAL_ERROR
    "telemetry block does not embed the merged metrics:\n${LAST_OUTPUT}")
endif()
check_metrics_snapshot("${WORK_DIR}/merged_metrics.json" "3-shard merge")
foreach(shard RANGE 1 3)
  json_field(shard_schema "${WORK_DIR}/launch/shard_${shard}.metrics.json"
    schema)
  if(NOT shard_schema STREQUAL "npd.metrics/1")
    message(FATAL_ERROR "shard ${shard} snapshot schema '${shard_schema}'")
  endif()
endforeach()
message(STATUS "metrics roundtrip: OK")
