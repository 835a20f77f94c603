# via_sim timeline= after restore=. Driven by add_test in
# tools/CMakeLists.txt with -DVIA_SIM=... -DCP=<scratch path> and
# -DCASE= one of:
#
#   sampled       restore an image a sampled run wrote. The image's
#                 clock is the core's commit front, the front of the
#                 last measured window (96 cycles for this input),
#                 not the extrapolated cycle count, so the restored
#                 run's 1000-cycle windows close at 1096 and 2096.
#   first_window  restore an image a detailed run wrote and print
#                 3- and 6-cycle windows. The first window starts at
#                 the restored cycle count and instruction count, so
#                 each window's IPC times its width is the whole
#                 number of instructions it retired, and the first
#                 6-cycle window retires what the first two 3-cycle
#                 windows do.

# The first two windows of a timeline, as tick;hundredths pairs.
function(first_two_windows out text)
    if(NOT text MATCHES
       "timeline [^\n]*\n  @([0-9]+) +ipc ([0-9]+)\\.([0-9][0-9])\n  @([0-9]+) +ipc ([0-9]+)\\.([0-9][0-9])\n")
        message(FATAL_ERROR "no two timeline windows in:\n${text}")
    endif()
    math(EXPR ipc1 "${CMAKE_MATCH_2} * 100 + ${CMAKE_MATCH_3}")
    math(EXPR ipc2 "${CMAKE_MATCH_5} * 100 + ${CMAKE_MATCH_6}")
    set(${out} "${CMAKE_MATCH_1};${ipc1};${CMAKE_MATCH_4};${ipc2}"
        PARENT_SCOPE)
endfunction()

# The instructions a window of @width cycles retired, from its IPC
# printed to two decimals (in hundredths); fatal unless some whole
# count prints exactly that IPC.
function(window_insts out hundredths width)
    math(EXPR n "(${hundredths} * ${width} + 50) / 100")
    math(EXPR printed "(200 * ${n} + ${width}) / (2 * ${width})")
    if(NOT printed EQUAL hundredths)
        message(FATAL_ERROR
                "a ${width}-cycle window reports IPC ${hundredths}/100, "
                "which no whole instruction count gives: it is not "
                "measured from the window's start")
    endif()
    set(${out} ${n} PARENT_SCOPE)
endfunction()

function(run_via_sim out)
    execute_process(COMMAND ${VIA_SIM} ${ARGN}
                    RESULT_VARIABLE rc
                    OUTPUT_VARIABLE text
                    ERROR_VARIABLE text)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "via_sim ${ARGN} failed (${rc}):\n${text}")
    endif()
    set(${out} "${text}" PARENT_SCOPE)
endfunction()

if(CASE STREQUAL "sampled")
    run_via_sim(save_out spmv rows=4096 density=0.005 mode=sampled
                sample_interval=20000 sample_warmup=500
                sample_measure=1500 checkpoint=${CP})
    run_via_sim(load_out spmv rows=256 density=0.02 restore=${CP}
                timeline=1000)
    if(NOT load_out MATCHES
       "timeline [^\n]*\n  @1096 [^\n]*\n  @2096 [^\n]*\nresult check: ok")
        message(FATAL_ERROR
                "restored timeline does not start at the commit front:\n"
                "${load_out}")
    endif()
elseif(CASE STREQUAL "first_window")
    run_via_sim(save_out spmv rows=128 density=0.03 checkpoint=${CP})
    if(NOT save_out MATCHES "\nVIA csb +([0-9]+) cycles")
        message(FATAL_ERROR "no VIA cycle count in:\n${save_out}")
    endif()
    set(front ${CMAKE_MATCH_1})

    run_via_sim(out3 spmv rows=256 density=0.02 restore=${CP}
                timeline=3)
    first_two_windows(w3 "${out3}")
    list(GET w3 0 tick)
    math(EXPR want "${front} + 3")
    if(NOT tick EQUAL want)
        message(FATAL_ERROR "the first window closes at ${tick}, not at "
                            "the restored front ${front} + 3:\n${out3}")
    endif()
    list(GET w3 1 ipc)
    window_insts(first ${ipc} 3)
    list(GET w3 3 ipc)
    window_insts(second ${ipc} 3)

    run_via_sim(out6 spmv rows=256 density=0.02 restore=${CP}
                timeline=6)
    first_two_windows(w6 "${out6}")
    list(GET w6 1 ipc)
    window_insts(both ${ipc} 6)
    math(EXPR sum "${first} + ${second}")
    if(NOT both EQUAL sum)
        message(FATAL_ERROR
                "the first 6-cycle window retired ${both} instructions, "
                "the first two 3-cycle windows ${first} + ${second}:\n"
                "${out3}\n${out6}")
    endif()
    message(STATUS "first windows retired ${first} and ${second} "
                   "instructions")
else()
    message(FATAL_ERROR "CASE must be sampled or first_window")
endif()

file(REMOVE ${CP})
