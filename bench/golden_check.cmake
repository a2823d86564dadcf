# One deterministic bench's output against its pin, run by ctest
# (bench/CMakeLists.txt):
#
#   cmake -DBENCH=<binary> -DSHA256=<hex> -P golden_check.cmake
#
# The SHA-256 of the bench's --csv standard output must equal SHA256, the
# digest of the output the figure, table or report had when it was pinned.
# A change that moves any value the bench prints fails here; a pin moves
# only with a change that explains why its output moved.
execute_process(COMMAND "${BENCH}" --csv
  RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT code EQUAL 0)
  message(FATAL_ERROR "${BENCH} --csv exited ${code}\n${err}")
endif()
string(SHA256 digest "${out}")
if(NOT digest STREQUAL SHA256)
  message(FATAL_ERROR "${BENCH}: --csv output has SHA-256 ${digest}, "
    "pinned ${SHA256}\n${out}")
endif()
message(STATUS "${BENCH}: --csv output matches its pin")
