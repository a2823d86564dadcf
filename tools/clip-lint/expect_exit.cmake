# Runs one command for ctest and requires its exact exit code, which ctest
# alone cannot check (WILL_FAIL takes any non-zero code):
#
#   cmake -DEXIT=<code> [-DEXPECT=<regex>] -P expect_exit.cmake -- <cmd>...
#
# With EXPECT, the command's output (stdout, then stderr) must also match
# the regex.
math(EXPR last "${CMAKE_ARGC} - 1")
set(command)
set(in_command OFF)
foreach(i RANGE ${last})
  if(in_command)
    list(APPEND command "${CMAKE_ARGV${i}}")
  elseif(CMAKE_ARGV${i} STREQUAL "--")
    set(in_command ON)
  endif()
endforeach()

execute_process(COMMAND ${command}
  RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT code STREQUAL EXIT)
  message(FATAL_ERROR "expected exit ${EXIT}, got ${code}: ${command}\n"
    "${out}${err}")
endif()
if(DEFINED EXPECT AND NOT "${out}${err}" MATCHES "${EXPECT}")
  message(FATAL_ERROR "output does not match '${EXPECT}': ${command}\n"
    "${out}${err}")
endif()
