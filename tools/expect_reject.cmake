# Runs BIN with ARGS and requires a rejection: exit status 1 (what an
# uncaught fatal() exits with; a panic aborts instead), a diagnostic
# on stderr that names EXPECT, and nothing on stdout (the binary
# refused before it simulated or printed anything).
#
#   cmake -DBIN=path -DARGS="a;b" -DEXPECT=text -P expect_reject.cmake
execute_process(COMMAND ${BIN} ${ARGS}
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT rc STREQUAL "1")
    message(FATAL_ERROR "'${BIN} ${ARGS}' exited '${rc}'; want a "
                        "rejection with exit status 1")
endif()
if(NOT out STREQUAL "")
    message(FATAL_ERROR "'${BIN} ${ARGS}' wrote to stdout before "
                        "rejecting:\n${out}")
endif()
string(FIND "${err}" "${EXPECT}" at)
if(at EQUAL -1)
    message(FATAL_ERROR "'${BIN} ${ARGS}' did not name '${EXPECT}':\n"
                        "${err}")
endif()
