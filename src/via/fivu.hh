/**
 * @file
 * The Fused Indexed Vector Unit timing model (paper Section IV-B).
 *
 * A VIA instruction flows through:
 *   preprocessing-1: request generation toward the SSPM — one batch
 *     of `ports` element reads per cycle;
 *   preprocessing-2: forward/packing of the returned elements, with
 *     the stall logic holding the FIVU busy until all requests land;
 *   baseline VFU execution;
 *   post-processing: write-back, either to the VRF or back into the
 *     SSPM (again `ports` elements per cycle).
 *
 * The model serializes instructions on the unit (the paper's stall
 * logic) and charges ceil(elements/ports) cycles per SSPM phase.
 */

#ifndef VIA_VIA_FIVU_HH
#define VIA_VIA_FIVU_HH

#include <cstdint>

#include "cpu/fu_pool.hh"
#include "isa/inst.hh"
#include "simcore/types.hh"
#include "trace/trace.hh"
#include "via/via_config.hh"

namespace via
{

/** FIVU occupancy statistics. */
struct FivuStats
{
    std::uint64_t viaInsts = 0;
    std::uint64_t busyCycles = 0;
    std::uint64_t sspmReadCycles = 0;
    std::uint64_t sspmWriteCycles = 0;
};

/** Timing-only model of the FIVU pipeline extension. */
class Fivu
{
  public:
    explicit
    Fivu(const ViaConfig &config)
        : _config(config), _ports(config.ports)
    {}

    /** Result of dispatching one VIA instruction. */
    struct Timing
    {
        Tick start = 0;    //!< when the FIVU accepted the inst
        Tick complete = 0; //!< when the result is architecturally
                           //!< visible (VRF or SSPM)
    };

    /**
     * Dispatch a VIA instruction whose operands are ready at
     * @p ready_at. The instruction waits for the unit, then occupies
     * it for its SSPM read phase, executes, and performs its SSPM
     * write phase.
     */
    Timing dispatch(const Inst &inst, Tick ready_at,
                    const OpLatencies &lat);

    /** First tick the unit can accept a new instruction. */
    Tick nextFree() const { return _nextFree; }

    /** SSPM port bookings moved up to the window base. */
    std::uint64_t portClamps() const { return _ports.clamps(); }

    /** Reset timing (not statistics), e.g. between kernels. */
    void
    resetTiming()
    {
        _nextFree = 0;
        _ports.resetTiming();
    }

    FivuStats &stats() { return _stats; }
    const FivuStats &stats() const { return _stats; }

    /**
     * Attach a trace sink: unit occupancy and the SSPM pre/post
     * phases of every VIA instruction become span events.
     */
    void setTrace(TraceManager *trace) { _trace = trace; }

    /** Cycles to move @p elems elements through the SSPM ports. */
    Tick
    portCycles(std::uint32_t elems) const
    {
        return elems == 0
                   ? 0
                   : (elems + _config.ports - 1) / _config.ports;
    }

    /** Serialize timing state and statistics. */
    void saveState(Serializer &ser) const;
    /** Restore state saved by saveState. */
    void loadState(Deserializer &des);

  private:
    /** Book @p elems SSPM port slots at or after @p when.
     *  @return the cycle after the last booked slot */
    Tick bookPorts(Tick when, std::uint32_t elems);

    ViaConfig _config;
    Resource _ports; //!< SSPM ports: `ports` element moves per cycle
    Tick _nextFree = 0;
    FivuStats _stats;
    TraceManager *_trace = nullptr;
};

} // namespace via

#endif // VIA_VIA_FIVU_HH
