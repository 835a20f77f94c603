# The drivers gate: via_sim, via_db and via_fuzz must print exactly
# what they printed when the golden was captured. Every line of
# tools/goldens/drivers.sha256 is one command:
#
#   <sha256 of stdout> <exit code> <driver> <arguments ...>
#
# The commands run from the source tree, so input paths in the
# arguments (examples/*.mtx, tools/dbg/*.dbg) are relative to it.
# The matrix covers every kernel on every backend, the cores>1,
# functional, sampled and sweep paths, each synthetic family and
# input loader, the debugger at one and two cores, the fuzzer, and
# each driver's help=1 table (which pins the option set). Stderr is
# not hashed: it carries sweep progress lines.
#
# Usage (one driver's lines, as the ctests run it):
#   cmake -DBIN_DIR=<dir with the drivers> -DSRC_DIR=<source root>
#         -DDRIVER=via_sim -P check_drivers_identical.cmake
# Recapture every hash and exit code in place, only when an output
# change is intended:
#   cmake -DBIN_DIR=... -DSRC_DIR=... -DUPDATE=1
#         -P check_drivers_identical.cmake

set(golden "${SRC_DIR}/tools/goldens/drivers.sha256")
file(STRINGS "${golden}" lines)

# The invariant checker adds an audit line to sampled runs; the
# golden is captured without it.
unset(ENV{VIA_CHECK})

set(updated "")
set(ran 0)
set(failed 0)
foreach(line IN LISTS lines)
    if(NOT line MATCHES "^([0-9a-f]+) ([0-9]+) ([a-z_]+) (.*)$")
        message(FATAL_ERROR "malformed line in ${golden}: ${line}")
    endif()
    set(want_hash "${CMAKE_MATCH_1}")
    set(want_rc "${CMAKE_MATCH_2}")
    set(driver "${CMAKE_MATCH_3}")
    set(args "${CMAKE_MATCH_4}")
    if(NOT UPDATE AND NOT driver STREQUAL DRIVER)
        continue()
    endif()

    separate_arguments(arg_list UNIX_COMMAND "${args}")
    execute_process(COMMAND ${BIN_DIR}/${driver} ${arg_list}
                    WORKING_DIRECTORY "${SRC_DIR}"
                    OUTPUT_VARIABLE out ERROR_VARIABLE err
                    RESULT_VARIABLE rc)
    string(SHA256 hash "${out}")
    math(EXPR ran "${ran} + 1")
    if(UPDATE)
        list(APPEND updated "${hash} ${rc} ${driver} ${args}")
    elseif(NOT hash STREQUAL want_hash OR NOT rc STREQUAL want_rc)
        math(EXPR failed "${failed} + 1")
        message("MISMATCH: ${driver} ${args}\n"
                "  exit ${rc} (golden ${want_rc}), stdout sha256 "
                "${hash}\n  (golden ${want_hash})\n"
                "--- stdout ---\n${out}--- stderr ---\n${err}")
    endif()
endforeach()

if(UPDATE)
    list(JOIN updated "\n" text)
    file(WRITE "${golden}" "${text}\n")
    message(STATUS "recaptured ${ran} commands into ${golden}")
elseif(ran EQUAL 0)
    message(FATAL_ERROR "no ${DRIVER} commands in ${golden}")
elseif(failed GREATER 0)
    message(FATAL_ERROR
            "${failed} of ${ran} ${DRIVER} commands differ from "
            "${golden}")
else()
    message(STATUS "${ran} ${DRIVER} commands byte-identical")
endif()
