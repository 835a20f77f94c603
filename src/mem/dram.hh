/**
 * @file
 * A bandwidth-limited DRAM pipe model.
 *
 * The controller is modelled as a single pipe with a fixed access
 * latency plus a transfer time proportional to the request size.
 * Back-to-back requests serialize on the pipe, which is what creates
 * the bandwidth wall that sparse kernels run into.
 */

#ifndef VIA_MEM_DRAM_HH
#define VIA_MEM_DRAM_HH

#include <cstdint>

#include "mem/mem_types.hh"
#include "simcore/resource.hh"
#include "simcore/types.hh"
#include "trace/trace.hh"

namespace via
{

class Serializer;
class Deserializer;

/** DRAM statistics, raw counters for StatSet registration. */
struct DramStats
{
    std::uint64_t requests = 0;
    std::uint64_t bytesRead = 0;
    std::uint64_t bytesWritten = 0;
    std::uint64_t busyCycles = 0;  //!< pipe occupied (bandwidth used)
    std::uint64_t queueCycles = 0; //!< time requests waited for pipe
};

/** Single-pipe DRAM timing model. */
class Dram
{
  public:
    explicit Dram(const DramParams &params);

    /**
     * Serve one request.
     *
     * @param bytes request size
     * @param when issue tick
     * @param is_write write traffic (affects stats only)
     * @return tick at which the data is available (reads) or the
     *         request is retired (writes)
     */
    Tick serve(std::uint64_t bytes, Tick when, bool is_write);

    /**
     * Account traffic without booking the pipe (functional
     * fast-forward): request and byte counters advance so bandwidth
     * statistics stay meaningful, but busyCycles and the pipe
     * resource are untouched — the busy-vs-pipe reconciliation
     * audited by src/check therefore still holds in warmed runs.
     */
    void
    warmTraffic(std::uint64_t bytes, bool is_write)
    {
        ++_stats.requests;
        if (is_write)
            _stats.bytesWritten += bytes;
        else
            _stats.bytesRead += bytes;
    }

    /** Serialize pipe bookings and statistics (checkpoints). */
    void saveState(Serializer &ser) const;
    /** Restore state saved by saveState. */
    void loadState(Deserializer &des);

    const DramParams &params() const { return _params; }
    DramStats &stats() { return _stats; }
    const DramStats &stats() const { return _stats; }

    /** Reset timing state (not statistics). */
    void resetTiming() { _pipe.resetTiming(); }

    /** Cumulative cycles the pipe was occupied (never reset). */
    std::uint64_t pipeBusy() const { return _pipe.busy(); }

    /** Latest tick the pipe has been booked to (timing-reset aware). */
    Tick pipeHorizon() const { return _pipe.horizon(); }

    /** Pipe bookings moved up to the window base. */
    std::uint64_t pipeClamps() const { return _pipe.clamps(); }

    /** Attach a trace sink for burst start/end events. */
    void setTrace(TraceManager *trace) { _trace = trace; }

  private:
    DramParams _params;
    /**
     * The data pipe, booked per cycle: requests with late issue
     * times never block earlier-time requests of other program
     * positions (no head-of-line artifact).
     */
    Resource _pipe;
    DramStats _stats;
    TraceManager *_trace = nullptr;
};

} // namespace via

#endif // VIA_MEM_DRAM_HH
