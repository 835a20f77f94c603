/**
 * @file
 * Driver-level tracing glue shared by via_sim and the bench
 * harnesses: the trace=/trace_format=/trace_limit=/trace_summary=
 * knobs, enabling a trace on a Machine, and writing the chosen
 * export format at the end of a run.
 */

#ifndef VIA_TRACE_TRACE_IO_HH
#define VIA_TRACE_TRACE_IO_HH

#include <string>

#include "simcore/options.hh"
#include "simcore/types.hh"

namespace via
{

class Machine;

/** Parsed tracing knobs. */
struct TraceOptions
{
    std::string path;            //!< trace=PATH; empty = disabled
    std::string format = "perfetto"; //!< trace_format=
    std::size_t limit = 1u << 20;    //!< trace_limit= (ring events)
    bool summary = false;            //!< trace_summary=1

    /**
     * Read the knobs from @p opts. trace_summary=1 alone (no
     * trace=) still collects events for the roll-up, just writes no
     * file.
     */
    static TraceOptions fromOptions(const Options &opts);

    /** True when any trace collection is requested. */
    bool
    active() const
    {
        return !path.empty() || summary;
    }
};

/**
 * Register the tracing keys (trace, trace_format, trace_limit,
 * trace_summary) with an Options registry; defaults mirror
 * TraceOptions.
 */
void addTraceOptions(Options &opts);

/** Enable tracing on @p m per the options (no-op when inactive). */
void enableTracing(Machine &m, const TraceOptions &opts);

/**
 * Export the machine's trace (if a path was given) and print the
 * roll-up to stdout (if trace_summary=1). @p suffix is inserted
 * before the path's extension, letting sweep points write distinct
 * per-Machine files.
 *
 * @return false if the output file could not be written
 */
bool finishTracing(Machine &m, const TraceOptions &opts,
                   const std::string &suffix = "");

} // namespace via

#endif // VIA_TRACE_TRACE_IO_HH
