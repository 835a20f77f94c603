# Checkpoint round trip through the CLI: run a kernel and write the
# post-run image, then restore it into a fresh machine and run again.
# Both invocations must self-verify (exit 0), and the restore must
# report that it consumed the file. The restored run samples a
# timeline, whose first window must close at the restored cycle
# count plus the window. Driven by add_test in tools/CMakeLists.txt
# with -DVIA_SIM=... -DCP=<scratch path>.

execute_process(
    COMMAND ${VIA_SIM} spmv rows=128 density=0.03 checkpoint=${CP}
    RESULT_VARIABLE save_rc
    OUTPUT_VARIABLE save_out
    ERROR_VARIABLE save_out)
if(NOT save_rc EQUAL 0)
    message(FATAL_ERROR "checkpoint run failed (${save_rc}):\n${save_out}")
endif()
if(NOT save_out MATCHES "checkpoint written to")
    message(FATAL_ERROR "no checkpoint confirmation:\n${save_out}")
endif()
if(NOT EXISTS ${CP})
    message(FATAL_ERROR "checkpoint file ${CP} was not written")
endif()
if(NOT save_out MATCHES "VIA csb +([0-9]+) cycles")
    message(FATAL_ERROR "no VIA cycle count:\n${save_out}")
endif()
math(EXPR first_window "${CMAKE_MATCH_1} + 1000")

execute_process(
    COMMAND ${VIA_SIM} spmv rows=128 density=0.03 restore=${CP}
            timeline=1000
    RESULT_VARIABLE load_rc
    OUTPUT_VARIABLE load_out
    ERROR_VARIABLE load_out)
if(NOT load_rc EQUAL 0)
    message(FATAL_ERROR "restore run failed (${load_rc}):\n${load_out}")
endif()
if(NOT load_out MATCHES "restored machine state from")
    message(FATAL_ERROR "no restore confirmation:\n${load_out}")
endif()
if(NOT load_out MATCHES "result check: ok")
    message(FATAL_ERROR "restored run failed self-check:\n${load_out}")
endif()
if(NOT load_out MATCHES "timeline [^\n]*\n  @${first_window} ")
    message(FATAL_ERROR
            "restored timeline does not start at @${first_window}:\n"
            "${load_out}")
endif()

# A corrupt image must be rejected with a nonzero exit, not
# half-applied. (Byte-level truncation cases live in
# tests/test_sample.cc; here the CLI error path is what's probed.)
file(WRITE ${CP}.trunc "not a checkpoint")
execute_process(
    COMMAND ${VIA_SIM} spmv rows=128 density=0.03 restore=${CP}.trunc
    RESULT_VARIABLE bad_rc
    OUTPUT_VARIABLE bad_out
    ERROR_VARIABLE bad_out)
if(bad_rc EQUAL 0)
    message(FATAL_ERROR "restore accepted a corrupt image:\n${bad_out}")
endif()

file(REMOVE ${CP} ${CP}.trunc)
