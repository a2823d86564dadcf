# The evaluation engine's contract on one bench binary, run by ctest
# (bench/CMakeLists.txt):
#
#   cmake -DBENCH=<binary> -DMAX_SIM_RUNS=<n> [-DHOST_TIMED=ON]
#         -P engine_check.cmake
#
# - the engine run (exact-run cache + oracle pruning) prints the same
#   --csv as the pre-engine baseline (--no-cache --no-prune), byte for
#   byte, apart from the search-cost row ("oracle needs"), which pruning
#   changes by design; HOST_TIMED=ON skips this for a table that carries
#   host-time columns;
# - the engine run's simulator runs (sim.runs from --stats) stay at or
#   below MAX_SIM_RUNS, the pin its pruning and cache hits hold.
execute_process(COMMAND "${BENCH}" --csv --stats
  RESULT_VARIABLE code OUTPUT_VARIABLE engine ERROR_VARIABLE stats)
if(NOT code EQUAL 0)
  message(FATAL_ERROR "${BENCH} --csv --stats exited ${code}\n${stats}")
endif()

if(NOT HOST_TIMED)
  execute_process(COMMAND "${BENCH}" --csv --no-cache --no-prune
    RESULT_VARIABLE code OUTPUT_VARIABLE baseline ERROR_VARIABLE err)
  if(NOT code EQUAL 0)
    message(FATAL_ERROR
      "${BENCH} --csv --no-cache --no-prune exited ${code}\n${err}")
  endif()
  string(REGEX REPLACE "[^\n]*oracle needs[^\n]*\n" "" engine "${engine}")
  string(REGEX REPLACE "[^\n]*oracle needs[^\n]*\n" "" baseline
    "${baseline}")
  if(NOT engine STREQUAL baseline)
    message(FATAL_ERROR "${BENCH}: --csv output differs between the engine "
      "run and the --no-cache --no-prune baseline\n"
      "engine:\n${engine}\nbaseline:\n${baseline}")
  endif()
endif()

if(NOT stats MATCHES "sim\\.runs=([0-9]+)")
  message(FATAL_ERROR "${BENCH}: no sim.runs in the --stats line\n${stats}")
endif()
set(runs ${CMAKE_MATCH_1})
if(runs GREATER MAX_SIM_RUNS)
  message(FATAL_ERROR
    "${BENCH}: sim.runs ${runs} is above its pin ${MAX_SIM_RUNS}")
endif()
message(STATUS "${BENCH}: sim.runs ${runs} (pin ${MAX_SIM_RUNS})")
