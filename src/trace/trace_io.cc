#include "trace/trace_io.hh"

#include <fstream>
#include <iostream>

#include "cpu/machine.hh"
#include "trace/konata_export.hh"
#include "trace/perfetto_export.hh"
#include "trace/summary.hh"

namespace via
{

TraceOptions
TraceOptions::fromOptions(const Options &opts)
{
    TraceOptions t;
    t.path = opts.getString("trace");
    t.format = opts.getString("trace_format");
    t.limit = std::size_t(opts.getUInt("trace_limit"));
    t.summary = opts.getBool("trace_summary");
    return t;
}

void
addTraceOptions(Options &opts)
{
    TraceOptions d;
    opts.addString("trace", "",
                   "write an event trace to this path")
        .addString("trace_format", d.format,
                   "trace export format: perfetto|konata",
                   {"perfetto", "konata"})
        .addUInt("trace_limit", d.limit,
                 "event ring capacity (oldest dropped)", 1)
        .addBool("trace_summary", d.summary,
                 "print a per-component event roll-up");
}

void
enableTracing(Machine &m, const TraceOptions &opts)
{
    if (opts.active())
        m.enableTracing(opts.limit);
}

bool
finishTracing(Machine &m, const TraceOptions &opts,
              const std::string &suffix)
{
    TraceManager *trace = m.trace();
    if (!opts.active() || trace == nullptr)
        return true;
    trace->endPhase(m.cycles());

    if (!opts.path.empty()) {
        std::string path = opts.path;
        if (!suffix.empty()) {
            auto dot = path.rfind('.');
            auto slash = path.rfind('/');
            if (dot == std::string::npos ||
                (slash != std::string::npos && dot < slash))
                path += suffix;
            else
                path.insert(dot, suffix);
        }
        std::ofstream out(path);
        if (!out) {
            std::cerr << "cannot write trace file '" << path
                      << "'\n";
            return false;
        }
        if (opts.format == "konata")
            writeKonata(*trace, out);
        else
            writePerfetto(*trace, out);
        std::cerr << "trace: " << trace->events().size()
                  << " events (" << trace->dropped()
                  << " dropped) -> " << path << "\n";
    }

    if (opts.summary)
        printTraceSummary(summarizeTrace(*trace, m.cycles()),
                          std::cout);
    return true;
}

} // namespace via
