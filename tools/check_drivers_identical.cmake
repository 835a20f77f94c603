# The byte-identity gates: a binary must print exactly what it
# printed when the golden was captured. Every line of a golden file
# is one command:
#
#   <sha256 of stdout> <exit code> <binary> [<arguments ...>]
#
# tools/goldens/drivers.sha256 pins via_sim, via_db, via_fuzz and
# via_serve: every kernel on every backend, every SpMV format at
# cores>1, the functional, sampled and sweep paths, each synthetic
# family and input loader, the debugger at one and two cores, the
# fuzzer, the serving table at one and two cores, and each driver's
# help=1 table (which pins the option set).
# tools/goldens/bench.sha256 pins the bench/ harnesses the same way:
# each figure and ablation at a small size, fig10_spmv on every
# backend, at cores=2 and in mode=sampled, and every help=1 table.
#
# The commands run from the source tree, so input paths in the
# arguments (examples/*.mtx, tools/dbg/*.dbg) are relative to it.
# Stderr is not hashed: it carries sweep progress lines.
#
# Usage (one binary's lines, as the ctests run it):
#   cmake -DBIN_DIR=<dir with the binaries> -DSRC_DIR=<source root>
#         [-DGOLDEN=<golden file>] -DDRIVER=<binary>
#         -P check_drivers_identical.cmake
# GOLDEN defaults to tools/goldens/drivers.sha256. Recapture every
# hash and exit code of a golden file in place, only when an output
# change is intended:
#   cmake -DBIN_DIR=... -DSRC_DIR=... [-DGOLDEN=...] -DUPDATE=1
#         -P check_drivers_identical.cmake

if(GOLDEN)
    set(golden "${GOLDEN}")
else()
    set(golden "${SRC_DIR}/tools/goldens/drivers.sha256")
endif()
file(STRINGS "${golden}" lines)

# The invariant checker adds an audit line to sampled runs; the
# golden is captured without it.
unset(ENV{VIA_CHECK})

set(updated "")
set(ran 0)
set(failed 0)
foreach(line IN LISTS lines)
    if(NOT line MATCHES "^([0-9a-f]+) ([0-9]+) ([a-z0-9_]+)( (.*))?$")
        message(FATAL_ERROR "malformed line in ${golden}: ${line}")
    endif()
    set(want_hash "${CMAKE_MATCH_1}")
    set(want_rc "${CMAKE_MATCH_2}")
    set(driver "${CMAKE_MATCH_3}")
    set(args "${CMAKE_MATCH_5}")
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
        string(STRIP "${hash} ${rc} ${driver} ${args}" entry)
        list(APPEND updated "${entry}")
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
