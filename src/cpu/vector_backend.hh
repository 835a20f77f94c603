/**
 * @file
 * The pluggable vector-unit backend a Machine is built over.
 *
 * The core timing model is backend-agnostic: it routes the
 * backend-specific instructions (VIA's vidx.* family, SSR's stream
 * configuration) through VectorBackend::dispatch, asks the backend
 * whether a memory instruction has an extra eligibility constraint
 * (SSR pops wait for the stream descriptor to land), and delegates
 * the accelerator's share of the energy accounting.
 *
 * Four backends exist:
 *   Base     — plain vector ISA; no indexed-access hardware. The
 *              dispatch hook is unreachable (no vidx/ssr emits).
 *   Via      — the paper's smart scratchpad + FIVU; dispatch
 *              forwards to the Fivu timing model unchanged, so a
 *              Machine built over ViaBackend is cycle-identical to
 *              the pre-backend-interface simulator.
 *   Ssr      — stream semantic registers (arXiv 2011.08070): affine
 *              or indirect streams bound to architected stream
 *              registers; pops read the next elements with no
 *              explicit address computation, at a stream-setup cost
 *              per bind and bounded by the register count.
 *   IndexMac — indexed multiply-accumulate through the cache
 *              hierarchy (arXiv 2311.07241): MAC-at-the-L1 macro-ops
 *              whose row buffer short-circuits repeated hits to the
 *              same accumulator line.
 *
 * Byte-identity contract: ViaBackend and BaseBackend register no
 * extra statistics and serialize no extra state, so stats dumps and
 * checkpoints of backend=via machines are byte-identical to the
 * pre-refactor simulator (gated by check_backend_via_identical).
 */

#ifndef VIA_CPU_VECTOR_BACKEND_HH
#define VIA_CPU_VECTOR_BACKEND_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "cpu/backend_params.hh"
#include "isa/inst.hh"
#include "isa/vreg.hh"
#include "simcore/resource.hh"
#include "simcore/stats.hh"
#include "via/fivu.hh"
#include "via/sspm.hh"

namespace via
{

class Serializer;
class Deserializer;

/** Timing, statistics and energy hooks of one accelerator model. */
class VectorBackend
{
  public:
    VectorBackend(Fivu &fivu, const Sspm &sspm)
        : _fivu(fivu), _sspm(sspm)
    {}
    virtual ~VectorBackend() = default;

    virtual BackendKind kind() const = 0;

    /**
     * Dispatch one backend-specific instruction (a VIA op, or an
     * SSR stream bind) whose operands are ready at @p ready.
     * Backends without such instructions treat a call as a kernel
     * bug and abort.
     */
    virtual Fivu::Timing dispatch(const Inst &inst, Tick ready,
                                  const OpLatencies &lat) = 0;

    /**
     * Earliest tick a memory instruction may begin its cache
     * accesses, given operands ready at @p ready. The default has no
     * extra constraint; SSR gates stream pops on the last stream
     * bind having completed.
     */
    virtual Tick
    memEligible(const Inst &inst, Tick ready)
    {
        (void)inst;
        return ready;
    }

    /**
     * Register backend-specific statistics. Via/Base add nothing —
     * the Machine registers the SSPM/CAM/FIVU counters itself, and
     * the dump must stay byte-identical across the refactor.
     */
    virtual void registerStats(StatSet &stats) { (void)stats; }

    /** Reset timing (not statistics) between kernels. */
    virtual void resetTiming() { _fivu.resetTiming(); }

    /** Bookings the backend's own resources moved up to their
     *  window bases (the FIVU's ports are the Machine's). */
    virtual std::uint64_t windowClamps() const { return 0; }

    /**
     * Serialize backend state appended to the machine checkpoint.
     * Via/Base write nothing (checkpoint byte-identity); stateful
     * backends tag and write their stream/row-buffer state.
     */
    virtual void saveState(Serializer &ser) const { (void)ser; }
    /** Restore state written by saveState. */
    virtual void loadState(Deserializer &des) { (void)des; }

    /**
     * Accelerator dynamic energy beyond what the core/cache/DRAM
     * counters already capture, in pJ. The per-event costs come from
     * the energy model (cpu code stays unit-cost agnostic).
     *
     * @param sspm_element_pj one 4-byte scratchpad port transfer
     * @param cam_compare_pj one comparator/tag activation
     */
    virtual double accelDynamicPj(double sspm_element_pj,
                                  double cam_compare_pj) const = 0;

    /** Accelerator leakage power in mW (integrated by the caller). */
    virtual double accelLeakageMw() const = 0;

  protected:
    Fivu &_fivu;
    const Sspm &_sspm;
};

/**
 * Plain vector ISA. Keeps the (unused) SSPM's dynamic/leakage terms
 * exactly as the pre-backend energy model charged them, so baseline
 * energy numbers are unchanged: an idle SSPM contributes zero
 * dynamic energy but still leaks.
 */
class BaseBackend : public VectorBackend
{
  public:
    using VectorBackend::VectorBackend;

    BackendKind kind() const override { return BackendKind::Base; }
    Fivu::Timing dispatch(const Inst &inst, Tick ready,
                          const OpLatencies &lat) override;
    double accelDynamicPj(double sspm_element_pj,
                          double cam_compare_pj) const override;
    double accelLeakageMw() const override;
};

/** The paper's VIA accelerator: forwards to the Fivu model. */
class ViaBackend : public VectorBackend
{
  public:
    using VectorBackend::VectorBackend;

    BackendKind kind() const override { return BackendKind::Via; }

    Fivu::Timing
    dispatch(const Inst &inst, Tick ready,
             const OpLatencies &lat) override
    {
        return _fivu.dispatch(inst, ready, lat);
    }

    double accelDynamicPj(double sspm_element_pj,
                          double cam_compare_pj) const override;
    double accelLeakageMw() const override;
};

/** SSR architectural + timing statistics. */
struct SsrStats
{
    std::uint64_t binds = 0;    //!< ssr.cfg stream descriptors set
    std::uint64_t pops = 0;     //!< pop/fused instructions executed
    std::uint64_t elements = 0; //!< elements streamed in
};

/**
 * Stream semantic registers. Architectural stream state (base,
 * cursor, element types) lives here because it is shared by the
 * emission path regardless of ExecPolicy, exactly like the SSPM's
 * contents for the VIA backend.
 */
class SsrBackend : public VectorBackend
{
  public:
    /** One architected stream register. */
    struct Stream
    {
        enum class Kind : std::uint8_t { None, Affine, Indirect };
        Kind kind = Kind::None;
        Addr base = 0;        //!< data base address
        ElemType dataType = ElemType::F32;
        Addr idxBase = 0;     //!< indirect: index array base
        ElemType idxType = ElemType::I32;
        std::uint64_t cursor = 0; //!< elements consumed so far
    };

    SsrBackend(Fivu &fivu, const Sspm &sspm,
               const BackendParams &params)
        : VectorBackend(fivu, sspm),
          _streams(params.ssrStreams)
    {}

    BackendKind kind() const override { return BackendKind::Ssr; }
    Fivu::Timing dispatch(const Inst &inst, Tick ready,
                          const OpLatencies &lat) override;

    Tick
    memEligible(const Inst &inst, Tick ready) override
    {
        if (isSsrOp(inst.op) && _lastCfgComplete > ready)
            return _lastCfgComplete;
        return ready;
    }

    void registerStats(StatSet &stats) override;

    void
    resetTiming() override
    {
        VectorBackend::resetTiming();
        _cfgUnit.resetTiming();
        _lastCfgComplete = 0;
    }

    std::uint64_t
    windowClamps() const override
    {
        return _cfgUnit.clamps();
    }

    void saveState(Serializer &ser) const override;
    void loadState(Deserializer &des) override;

    double accelDynamicPj(double sspm_element_pj,
                          double cam_compare_pj) const override;
    double accelLeakageMw() const override;

    // --- emission-side API (Machine ssr* emits) ------------------
    std::uint32_t numStreams() const
    {
        return std::uint32_t(_streams.size());
    }
    Stream &stream(std::uint32_t s);
    SsrStats &archStats() { return _stats; }
    const SsrStats &archStats() const { return _stats; }

  private:
    std::vector<Stream> _streams;
    Resource _cfgUnit{1}; //!< one descriptor write per cycle
    Tick _lastCfgComplete = 0;
    SsrStats _stats;
};

/** IndexMAC architectural + timing statistics. */
struct ImacStats
{
    std::uint64_t ops = 0;       //!< vimac.* macro-ops executed
    std::uint64_t rowHits = 0;   //!< lanes served by the row buffer
    std::uint64_t rowMisses = 0; //!< lanes paying a cache access
};

/**
 * Indexed MAC through the cache hierarchy. The row buffer tracks the
 * last N accumulator lines touched by vimac ops; a lane hitting a
 * buffered line skips its cache access (the MAC unit operates on the
 * buffered copy). Contents persist across resetTiming like cache
 * tags — the locality is architectural, not per-kernel.
 */
class IndexMacBackend : public VectorBackend
{
  public:
    IndexMacBackend(Fivu &fivu, const Sspm &sspm,
                    const BackendParams &params,
                    std::uint32_t line_bytes)
        : VectorBackend(fivu, sspm),
          _rows(params.imacRows, NO_LINE),
          _lineBytes(line_bytes)
    {}

    BackendKind
    kind() const override
    {
        return BackendKind::IndexMac;
    }

    Fivu::Timing dispatch(const Inst &inst, Tick ready,
                          const OpLatencies &lat) override;
    void registerStats(StatSet &stats) override;
    void saveState(Serializer &ser) const override;
    void loadState(Deserializer &des) override;

    double accelDynamicPj(double sspm_element_pj,
                          double cam_compare_pj) const override;
    double accelLeakageMw() const override;

    // --- emission-side API (Machine vimac* emits) ----------------
    /**
     * Consult-and-update the row buffer for the line holding
     * @p addr. @return true on hit (the lane's cache access is
     * filtered); on miss the line is inserted, evicting the LRU
     * entry.
     */
    bool touchLine(Addr addr);
    ImacStats &archStats() { return _stats; }
    const ImacStats &archStats() const { return _stats; }

  private:
    static constexpr std::uint64_t NO_LINE = ~std::uint64_t(0);

    /** Row-buffer entries, most recently used first. */
    std::vector<std::uint64_t> _rows;
    std::uint32_t _lineBytes;
    ImacStats _stats;
};

/** Factory over BackendParams (Machine construction). */
std::unique_ptr<VectorBackend>
makeBackend(const BackendParams &params, Fivu &fivu,
            const Sspm &sspm, std::uint32_t line_bytes);

} // namespace via

#endif // VIA_CPU_VECTOR_BACKEND_HH
