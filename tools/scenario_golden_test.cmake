# Golden report hashes: every registered scenario, run on its own at
# small parameters with 1 and with 3 worker threads, must produce a
# `--no-perf` report whose SHA-256 matches the committed value below —
# the same value for both thread counts.  The hashes pin the report bytes of
# all scenarios (deprecated aliases included), so a refactor of the
# scenario code, the engine or the solvers proves it changed no result by
# leaving this list untouched.  A change that moves results on purpose
# updates the affected rows; the failure message prints the new hash.
#
# The set of scenarios must equal the set `npd_run --list` registers: a
# new scenario lands with its golden row, a removed one takes its row
# along.
#
# Inputs: -DNPD_RUN=<npd_run> -DWORK_DIR=<dir>

foreach(var NPD_RUN WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "missing -D${var}=...")
  endif()
endforeach()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

# scenario, its --params ('-' = defaults), SHA-256 of the report written by
#   npd_run --scenarios <scenario> --reps 2 --seed 7 --threads {1,3} --no-perf
#           --params ...
set(GOLDEN
  "abl1              abl1.n=200
     70eafc6f0a04ffc972e5da5f410eec698326d78a4a22eb2c791fce4fc922ddf9"
  "abl2              abl2.n=200,abl2.m_max=150
     7c85b5309436bce4ef08c71a3f905f73e4ba9931fc55c213f2d6156e3f9a9816"
  "abl3              abl3.n=200,abl3.m_step=200,abl3.m_max=800
     4444da7076326c0c821ffb8e997645e9b3d19380f98a504e545ab2257b128428"
  "abl4              abl4.n=200,abl4.m_max=150
     67757614e886ea55d30d05dd133a476f1436bccd92bda981de28d013ae4bf47c"
  "abl5              abl5.n=200
     6b3411fbf167e9f7a4fc656380f55e52c1ce372692992801ecd56413e64c05ca"
  "abl6              abl6.n=200,abl6.m_max=150
     40a15a100bca569b8e9f490c47863b4218beb2c96f2386b085c08f1d253b652a"
  "abl7              abl7.max_n=300,abl7.amp_sim_max_n=200
     f535daeb926ff570a1b272bc01c6393ea5e4871c56d0e3e707bd46ed3e3da40e"
  "fig2              fig2.max_n=300
     46d013c0b85f3198e2daf30251b3e9f2c1ed00d80b548c8f161b1d15b2165fe9"
  "fig3              fig3.max_n=300
     028b1ec856b8eae35ace6d14ead686074e8cc981ce2a3d7593a615b534fac399"
  "fig4              fig4.max_n=300
     95c20e45af347928f4548cd987275f3fe700cc366d64540f73a0386fddb1debb"
  "fig5              fig5.max_n=1000
     808c567ac5c5b04b812eec9ffad80191e77907881724d5a0fc2b84d671d55e9b"
  "fig6              fig6.n=200,fig6.m_max=150
     dacb9b02406076ace7b8e43289eb0145faa2a1e9c917f83716dbae3bab52e75b"
  "fixed_m           fixed_m.n=150
     d84deb26796793e9dc149b8a105982a8da69da14d3b45c814915335922cba4e4"
  "fixed_m_amp       fixed_m_amp.n=150
     b4eec1be0ee2750dec76e910864aaa6d5e63133c450821f30c8cf171ea1125ed"
  "fixed_m_greedy    fixed_m_greedy.n=150
     d7473df9e6c7a9d9f9b4c3ebb9aa294dae3583595799912d45ac5d698c822884"
  "fixed_m_two_stage fixed_m_two_stage.n=150
     269774cfb59d114efebb918cb4d64584b99a08ca038a476e775df233fb9d664b"
  "phase_atlas       -
     0bc32b5b41346c872a9b4178a248c0be8bd5bd14c2b8dad9da5ad0a2c0aab40f"
  "solver_sweep      -
     81984a56c7eba357206625b5416bf38d99b5c7d111ad6c7c5d561c06106e9e59")

# The registered names, parsed the way the docs lint does: scenario lines
# are exactly two-space indented.
execute_process(COMMAND "${NPD_RUN}" --list
  RESULT_VARIABLE result
  OUTPUT_VARIABLE listing
  ERROR_VARIABLE listing)
if(NOT result EQUAL 0)
  message(FATAL_ERROR "npd_run --list failed (${result}):\n${listing}")
endif()
string(REGEX MATCHALL "\n  [a-z0-9_]+" scenario_lines "\n${listing}")
set(registered "")
foreach(line IN LISTS scenario_lines)
  string(REGEX REPLACE "\n  " "" scenario "${line}")
  list(APPEND registered "${scenario}")
endforeach()

set(golden_names "")
set(failures "")
foreach(row IN LISTS GOLDEN)
  string(REGEX MATCHALL "[^ \n]+" fields "${row}")
  list(GET fields 0 scenario)
  list(GET fields 1 params)
  list(GET fields 2 expected)
  list(APPEND golden_names "${scenario}")

  foreach(threads 1 3)
    set(report "${WORK_DIR}/${scenario}.t${threads}.json")
    set(args --scenarios "${scenario}" --reps 2 --seed 7 --threads ${threads}
             --no-perf --quiet --out "${report}")
    if(NOT params STREQUAL "-")
      list(APPEND args --params "${params}")
    endif()
    execute_process(COMMAND "${NPD_RUN}" ${args}
      RESULT_VARIABLE result
      OUTPUT_VARIABLE output
      ERROR_VARIABLE output)
    if(NOT result EQUAL 0)
      message(FATAL_ERROR "npd_run failed on '${scenario}' at --threads "
        "${threads} (${result}):\n${output}")
    endif()

    file(SHA256 "${report}" actual)
    if(actual STREQUAL expected)
      message(STATUS "${scenario} --threads ${threads}: golden")
    else()
      list(APPEND failures "${scenario}(--threads ${threads})")
      message(STATUS "${scenario} --threads ${threads}: report SHA-256 "
        "${actual} != golden ${expected}")
    endif()
  endforeach()
endforeach()

list(SORT registered)
list(SORT golden_names)
if(NOT registered STREQUAL golden_names)
  message(FATAL_ERROR "registered scenarios (${registered}) differ from the "
    "golden list (${golden_names}); add or remove the golden rows")
endif()
if(failures)
  message(FATAL_ERROR "report bytes changed for: ${failures}")
endif()
list(LENGTH golden_names count)
message(STATUS "all ${count} scenario reports match their golden hashes")
