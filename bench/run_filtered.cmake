# Runs one Google Benchmark binary under a filter of literal names joined
# by '|', and fails unless it exits 0 and its output names every one.
#
#   cmake -DBENCH=<binary> -DFILTER=<name>|<name> -P run_filtered.cmake
execute_process(COMMAND ${BENCH} --benchmark_filter=${FILTER}
  RESULT_VARIABLE status
  OUTPUT_VARIABLE output
  ERROR_VARIABLE errors)
message("${output}")
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${BENCH} exited with ${status}\n${errors}")
endif()
string(REPLACE "|" ";" names "${FILTER}")
foreach(name IN LISTS names)
  string(FIND "${output}" "${name}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "${name} is missing from the output of ${BENCH}")
  endif()
endforeach()
