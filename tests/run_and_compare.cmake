# Runs a command that writes OUTPUT, then compares OUTPUT with GOLDEN byte
# for byte. The ctest cases for the committed schedule-trace goldens run it.
#
#   cmake -DOUTPUT=<file> -DGOLDEN=<file> -P run_and_compare.cmake -- <command>
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
  message(FATAL_ERROR "usage: cmake -DOUTPUT=<file> -DGOLDEN=<file> -P "
                      "run_and_compare.cmake -- <command>")
endif()

file(REMOVE "${OUTPUT}")
execute_process(COMMAND ${command} RESULT_VARIABLE status OUTPUT_QUIET)
if(NOT status EQUAL 0)
  list(JOIN command " " shown)
  message(FATAL_ERROR "command exited with ${status}: ${shown}")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files "${OUTPUT}"
                        "${GOLDEN}"
                RESULT_VARIABLE differs)
if(NOT differs EQUAL 0)
  message(FATAL_ERROR "${OUTPUT} differs from ${GOLDEN}")
endif()
