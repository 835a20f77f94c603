# Checkpoint round trip through the CLI: run a kernel and write the
# post-run image, then restore it into a fresh machine and run again.
# Both invocations must self-verify (exit 0), and the restore must
# report that it consumed the file. The image's SHA-256 must match
# the first word of the GOLDEN file, so any change to what a
# checkpoint holds shows here. The restored run samples a timeline,
# whose first window must close at the restored cycle count plus the
# window. Driven by add_test in tools/CMakeLists.txt with
# -DVIA_SIM=... -DCP=<scratch path> -DGOLDEN=<golden file>.
#
# Recapture the golden in place, only when the image is meant to
# change (a new checkpoint VERSION):
#   cmake -DVIA_SIM=build/tools/via_sim -DCP=/tmp/cp.bin
#         -DGOLDEN=tools/goldens/checkpoint.sha256 -DUPDATE=1
#         -P tools/check_checkpoint.cmake

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
set(command "via_sim spmv rows=128 density=0.03 checkpoint=<file>")
file(SHA256 ${CP} image_hash)
file(SIZE ${CP} image_bytes)
if(UPDATE)
    file(WRITE ${GOLDEN} "${image_hash} ${command}\n")
    message(STATUS "recaptured ${GOLDEN}: ${image_hash} "
            "(${image_bytes} bytes)")
else()
    file(STRINGS ${GOLDEN} golden_line LIMIT_COUNT 1)
    if(NOT golden_line MATCHES "^([0-9a-f]+) ")
        message(FATAL_ERROR "malformed golden ${GOLDEN}: ${golden_line}")
    endif()
    if(NOT image_hash STREQUAL CMAKE_MATCH_1)
        message(FATAL_ERROR "checkpoint image of `${command}` changed:\n"
                "  golden  ${CMAKE_MATCH_1}\n"
                "  now     ${image_hash} (${image_bytes} bytes)")
    endif()
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
