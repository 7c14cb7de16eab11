# Runs one bench binary in a fresh directory where a directory takes the name
# of the report it writes, so the report cannot be written. The bench must
# exit non-zero, say why on stderr and print no "wrote" line. Invoked by a
# bench_smoke ctest:
#
#   cmake -DBENCH=<binary> -DARGS="<flags>" -DJSON=<BENCH_x.json>
#         -DWORK=<scratch dir> -P write_failure_check.cmake
file(REMOVE_RECURSE "${WORK}")
file(MAKE_DIRECTORY "${WORK}/${JSON}")
separate_arguments(bench_args UNIX_COMMAND "${ARGS}")
execute_process(
  COMMAND "${BENCH}" ${bench_args}
  WORKING_DIRECTORY "${WORK}"
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err
  RESULT_VARIABLE status)
if(status EQUAL 0)
  message(FATAL_ERROR "bench exited 0 although ${JSON} could not be written")
endif()
if(out MATCHES "wrote ")
  message(FATAL_ERROR "bench printed a wrote line for ${JSON}")
endif()
if(NOT err MATCHES "cannot write ${JSON}")
  message(FATAL_ERROR "bench did not say why ${JSON} failed: ${err}")
endif()
