# Runs `PROGRAM --demo [ARG]` and fails unless it exits STATUS (default 2,
# ictl_check's usage error) with MESSAGE in its standard error:
#
#   cmake -DPROGRAM=<path> [-DARG=<flag>] [-DSTATUS=<code>] -DMESSAGE=<text>
#         -P expect_demo_exit.cmake
if(NOT DEFINED STATUS)
  set(STATUS 2)
endif()
execute_process(COMMAND "${PROGRAM}" --demo ${ARG}
                RESULT_VARIABLE status OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT status EQUAL STATUS)
  message(FATAL_ERROR "--demo ${ARG}: exit status ${status}, want ${STATUS}\n${out}${err}")
endif()
string(FIND "${err}" "${MESSAGE}" at)
if(at EQUAL -1)
  message(FATAL_ERROR "--demo ${ARG}: standard error lacks \"${MESSAGE}\":\n${err}")
endif()
