# Runs a command that must be refused with a given exit status, so a
# rejection ctest tells an orderly refusal from an abort or a crash:
#
#   cmake -DEXIT=<status> -P expect_exit.cmake <command> [args...]
#
# The command's output is echoed for the ctest's PASS/FAIL regexes.

set(cmd)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
  if(found_script)
    list(APPEND cmd "${CMAKE_ARGV${i}}")
  elseif(CMAKE_ARGV${i} MATCHES "expect_exit\\.cmake$")
    set(found_script TRUE)
  endif()
endforeach()
execute_process(COMMAND ${cmd} RESULT_VARIABLE status OUTPUT_VARIABLE out ERROR_VARIABLE out)
message("${out}")
if(NOT status STREQUAL "${EXIT}")
  message(FATAL_ERROR "expected exit status ${EXIT}, got ${status}")
endif()
