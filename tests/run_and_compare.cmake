# Runs a command that writes OUTPUT, then compares OUTPUT with GOLDEN byte
# for byte. The ctest cases for the committed goldens run it.
#
#   cmake -DOUTPUT=<file> -DGOLDEN=<file> [-DSTDOUT=ON] [-DEXCLUDE=<regex>]
#         -P run_and_compare.cmake -- <command>
#
# STDOUT=ON: the command prints its output, which is captured into OUTPUT.
# EXCLUDE: lines matching the regex are dropped from both files before the
# comparison (counters that depend on the thread layout).
set(command "")
set(after_separator FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
  if(after_separator)
    list(APPEND command "${CMAKE_ARGV${i}}")
  elseif(CMAKE_ARGV${i} STREQUAL "--")
    set(after_separator TRUE)
  endif()
endforeach()
if(NOT command OR NOT DEFINED OUTPUT OR NOT DEFINED GOLDEN)
  message(FATAL_ERROR "usage: cmake -DOUTPUT=<file> -DGOLDEN=<file> "
                      "[-DSTDOUT=ON] [-DEXCLUDE=<regex>] -P "
                      "run_and_compare.cmake -- <command>")
endif()

file(REMOVE "${OUTPUT}")
if(STDOUT)
  execute_process(COMMAND ${command} RESULT_VARIABLE status
                  OUTPUT_FILE "${OUTPUT}")
else()
  execute_process(COMMAND ${command} RESULT_VARIABLE status OUTPUT_QUIET)
endif()
if(NOT status EQUAL 0)
  list(JOIN command " " shown)
  message(FATAL_ERROR "command exited with ${status}: ${shown}")
endif()
if(DEFINED EXCLUDE)
  file(READ "${OUTPUT}" got)
  file(READ "${GOLDEN}" want)
  string(REGEX REPLACE "[^\n]*(${EXCLUDE})[^\n]*\n" "" got "${got}")
  string(REGEX REPLACE "[^\n]*(${EXCLUDE})[^\n]*\n" "" want "${want}")
  if(got STREQUAL want)
    set(differs 0)
  else()
    set(differs 1)
  endif()
else()
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files "${OUTPUT}"
                          "${GOLDEN}"
                  RESULT_VARIABLE differs)
endif()
if(NOT differs EQUAL 0)
  message(FATAL_ERROR "${OUTPUT} differs from ${GOLDEN}")
endif()
