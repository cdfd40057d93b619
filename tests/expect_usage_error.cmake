# Runs `PROGRAM --demo ARG` and fails unless it exits 2 (ictl_check's usage
# error) with MESSAGE in its standard error:
#
#   cmake -DPROGRAM=<path> -DARG=<flag> -DMESSAGE=<text> -P expect_usage_error.cmake
execute_process(COMMAND "${PROGRAM}" --demo "${ARG}"
                RESULT_VARIABLE status OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT status EQUAL 2)
  message(FATAL_ERROR "${ARG}: exit status ${status}, want 2\n${out}${err}")
endif()
string(FIND "${err}" "${MESSAGE}" at)
if(at EQUAL -1)
  message(FATAL_ERROR "${ARG}: standard error lacks \"${MESSAGE}\":\n${err}")
endif()
