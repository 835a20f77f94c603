# via_sim timeline= after restore= of an image a sampled run wrote.
# The image's clock is the core's commit front, the front of the
# last measured window (96 cycles for this input), not the
# extrapolated cycle count, so the restored run's 1000-cycle windows
# close at 1096 and 2096. Driven by add_test in tools/CMakeLists.txt
# with -DVIA_SIM=... -DCP=<scratch path>.

execute_process(
    COMMAND ${VIA_SIM} spmv rows=4096 density=0.005 mode=sampled
            sample_interval=20000 sample_warmup=500 sample_measure=1500
            checkpoint=${CP}
    RESULT_VARIABLE save_rc
    OUTPUT_VARIABLE save_out
    ERROR_VARIABLE save_out)
if(NOT save_rc EQUAL 0)
    message(FATAL_ERROR "sampled checkpoint run failed (${save_rc}):\n"
                        "${save_out}")
endif()

execute_process(
    COMMAND ${VIA_SIM} spmv rows=256 density=0.02 restore=${CP}
            timeline=1000
    RESULT_VARIABLE load_rc
    OUTPUT_VARIABLE load_out
    ERROR_VARIABLE load_out)
if(NOT load_rc EQUAL 0)
    message(FATAL_ERROR "restore run failed (${load_rc}):\n${load_out}")
endif()
if(NOT load_out MATCHES
   "timeline [^\n]*\n  @1096 [^\n]*\n  @2096 [^\n]*\nresult check: ok")
    message(FATAL_ERROR
            "restored timeline does not start at the commit front:\n"
            "${load_out}")
endif()

file(REMOVE ${CP})
