# Run a binary and require an exact exit code. CTest's
# PASS_REGULAR_EXPRESSION replaces exit-status checking, so the
# options-contract smoke tests (help=1 -> 0, unknown key -> 2) go
# through this script instead. With -DEMPTY_STDOUT=1 the binary must
# also print nothing on stdout (a usage error caught before any work),
# and with -DSTDOUT_MATCH=<regex> or -DSTDERR_MATCH=<regex> that
# stream must match the regex. -DVMEM_KB=<n> runs the binary under
# `ulimit -v <n>`.
#
# Usage:
#   cmake -DBIN=<path> -DARGS=<space-separated args> -DEXPECT=<code>
#         [-DEMPTY_STDOUT=1] [-DSTDOUT_MATCH=<regex>]
#         [-DSTDERR_MATCH=<regex>] [-DVMEM_KB=<n>]
#         -P check_exit_code.cmake
separate_arguments(ARG_LIST UNIX_COMMAND "${ARGS}")
set(launcher)
if(DEFINED VMEM_KB)
    set(launcher sh -c "ulimit -v ${VMEM_KB} && exec \"$0\" \"$@\"")
endif()
execute_process(COMMAND ${launcher} ${BIN} ${ARG_LIST}
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL "${EXPECT}")
    message(FATAL_ERROR
            "${BIN} ${ARGS}: exited ${rc}, expected ${EXPECT}")
endif()
if(EMPTY_STDOUT AND NOT out STREQUAL "")
    message(FATAL_ERROR
            "${BIN} ${ARGS}: expected no stdout, got:\n${out}")
endif()
if(DEFINED STDOUT_MATCH AND NOT out MATCHES "${STDOUT_MATCH}")
    message(FATAL_ERROR
            "${BIN} ${ARGS}: stdout does not match "
            "'${STDOUT_MATCH}':\n${out}")
endif()
if(DEFINED STDERR_MATCH AND NOT err MATCHES "${STDERR_MATCH}")
    message(FATAL_ERROR
            "${BIN} ${ARGS}: stderr does not match "
            "'${STDERR_MATCH}':\n${err}")
endif()
