# Runs one golden case and compares what it prints and writes with the
# captures in tests/golden/. The `golden` ctest label (tests/CMakeLists.txt)
# uses it as
#
#   cmake -DNAME=<case> -DTHREADS=<n> -DGOLDEN_DIR=<dir> -DWORK_DIR=<dir>
#         [-DFILES=a,b] [-DINPUTS=c] [-DMASK=f1,f2]
#         -P golden_run.cmake -- <command> [args...]
#
# The command runs with `--threads THREADS` appended, in a fresh directory
# WORK_DIR/NAME.tTHREADS, and must exit 0. Its stdout is compared with
# GOLDEN_DIR/NAME.txt, and each file it writes there (FILES, relative
# names) with GOLDEN_DIR/NAME.<file>. INPUTS are captures copied into the
# directory first, so a case can read another case's output.
#
# MASK names the fields whose values differ from run to run (wall clock,
# thread-count labels, the build id). Each named field is masked by name
# only: its value after `"field":` (a number, a string, or an object such
# as a metrics histogram) and after `field=` becomes <masked>, in the
# captures and in the fresh output alike.
#
# With the environment variable SICMAC_GOLDEN_REGEN set, the masked output
# overwrites the captures instead (scripts/regen_golden.sh).

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
  message(FATAL_ERROR "golden_run.cmake: no command after --")
endif()
string(REPLACE "," ";" files "${FILES}")
string(REPLACE "," ";" inputs "${INPUTS}")
string(REPLACE "," ";" mask "${MASK}")

function(mask_fields var)
  set(text "${${var}}")
  foreach(field IN LISTS mask)
    string(REGEX REPLACE "([.+*?^$()|\\[\\]\\\\])" "\\\\\\1" re "${field}")
    string(REGEX REPLACE
      "\"${re}\":(\"[^\"]*\"|{[^{}]*({[^{}]*}[^{}]*)*}|[^,}]*)"
      "\"${field}\":\"<masked>\"" text "${text}")
    string(REGEX REPLACE "([^A-Za-z0-9_.\"]|^)${re}=[A-Za-z0-9_+-]+(\\.[0-9]+)?"
      "\\1${field}=<masked>" text "${text}")
  endforeach()
  set(${var} "${text}" PARENT_SCOPE)
endfunction()

set(dir "${WORK_DIR}/${NAME}.t${THREADS}")
file(REMOVE_RECURSE "${dir}")
file(MAKE_DIRECTORY "${dir}")
foreach(input IN LISTS inputs)
  file(COPY "${GOLDEN_DIR}/${input}" DESTINATION "${dir}")
endforeach()

execute_process(COMMAND ${cmd} --threads ${THREADS}
  WORKING_DIRECTORY "${dir}"
  RESULT_VARIABLE rc OUTPUT_VARIABLE stdout ERROR_VARIABLE stderr)
if(NOT rc STREQUAL "0")
  message(FATAL_ERROR "command: ${cmd} --threads ${THREADS}\n"
    "exit: ${rc}\nstderr:\n${stderr}")
endif()

file(WRITE "${dir}/stdout.txt" "${stdout}")
set(failed "")
function(check capture output)
  if(NOT EXISTS "${output}")
    string(APPEND failed "  ${capture}: the command did not write ${output}\n")
  else()
    file(READ "${output}" got)
    mask_fields(got)
    if(DEFINED ENV{SICMAC_GOLDEN_REGEN})
      file(WRITE "${GOLDEN_DIR}/${capture}" "${got}")
      return()
    endif()
    file(WRITE "${dir}/masked.${capture}" "${got}")
    if(NOT EXISTS "${GOLDEN_DIR}/${capture}")
      string(APPEND failed "  ${capture}: no capture (scripts/regen_golden.sh)\n")
    else()
      file(READ "${GOLDEN_DIR}/${capture}" want)
      if(NOT got STREQUAL want)
        string(APPEND failed "  ${capture}: diff -u ${GOLDEN_DIR}/${capture}"
          " ${dir}/masked.${capture}\n")
      endif()
    endif()
  endif()
  set(failed "${failed}" PARENT_SCOPE)
endfunction()
check("${NAME}.txt" "${dir}/stdout.txt")
foreach(f IN LISTS files)
  check("${NAME}.${f}" "${dir}/${f}")
endforeach()
if(NOT failed STREQUAL "")
  message(FATAL_ERROR "command: ${cmd} --threads ${THREADS}\n"
    "output differs from the capture:\n${failed}")
endif()
