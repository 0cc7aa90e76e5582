# Runs one command and checks how it ends. ctest cases for the front
# ends' exit-code contract (tests/CMakeLists.txt) use it as
#
#   cmake -DRC=<exit code> [-DSTDOUT=<regex>] [-DSTDERR_LINES=<n>]
#         -P expect_run.cmake -- <command> [args...]
#
# RC is the exit code the command must return. STDOUT, when set, is a
# regex its stdout must match. STDERR_LINES, when set, is the number of
# lines it must print on stderr.

set(cmd "")
set(seen_separator FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE 0 ${last})
  if(seen_separator)
    list(APPEND cmd "${CMAKE_ARGV${i}}")
  elseif("${CMAKE_ARGV${i}}" STREQUAL "--")
    set(seen_separator TRUE)
  endif()
endforeach()
if(cmd STREQUAL "")
  message(FATAL_ERROR "expect_run.cmake: no command after --")
endif()

execute_process(COMMAND ${cmd}
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
set(report "command: ${cmd}\nexit: ${rc}\nstdout:\n${out}\nstderr:\n${err}")
if(NOT rc STREQUAL "${RC}")
  message(FATAL_ERROR "want exit ${RC}\n${report}")
endif()
if(DEFINED STDOUT AND NOT out MATCHES "${STDOUT}")
  message(FATAL_ERROR "stdout does not match '${STDOUT}'\n${report}")
endif()
if(DEFINED STDERR_LINES)
  string(REGEX MATCHALL "\n" newlines "${err}")
  list(LENGTH newlines lines)
  if(NOT lines EQUAL STDERR_LINES)
    message(FATAL_ERROR "want ${STDERR_LINES} stderr line(s), got ${lines}\n${report}")
  endif()
endif()
