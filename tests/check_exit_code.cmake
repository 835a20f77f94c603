# Run a binary and require an exact exit code. CTest's
# PASS_REGULAR_EXPRESSION replaces exit-status checking, so the
# options-contract smoke tests (help=1 -> 0, unknown key -> 2) go
# through this script instead. With -DEMPTY_STDOUT=1 the binary must
# also print nothing on stdout (a usage error caught before any work).
#
# Usage:
#   cmake -DBIN=<path> -DARGS=<space-separated args> -DEXPECT=<code>
#         [-DEMPTY_STDOUT=1] -P check_exit_code.cmake
separate_arguments(ARG_LIST UNIX_COMMAND "${ARGS}")
execute_process(COMMAND ${BIN} ${ARG_LIST}
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out ERROR_QUIET)
if(NOT rc EQUAL "${EXPECT}")
    message(FATAL_ERROR
            "${BIN} ${ARGS}: exited ${rc}, expected ${EXPECT}")
endif()
if(EMPTY_STDOUT AND NOT out STREQUAL "")
    message(FATAL_ERROR
            "${BIN} ${ARGS}: expected no stdout, got:\n${out}")
endif()
