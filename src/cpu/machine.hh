/**
 * @file
 * The Machine facade: functional execution + timing in one push.
 *
 * Kernels program the simulated core through an assembler-like API.
 * Each emit executes the instruction's architectural semantics
 * immediately (vector register file, SSPM, backing memory) and folds
 * its timing metadata into the out-of-order core model. Control flow
 * lives in the host kernel code and is treated as perfectly
 * predicted (see DESIGN.md Section 5).
 *
 * Register identifiers are plain handles; the kernel is responsible
 * for its own (trivial) register allocation out of NUM_SREGS scalar
 * and NUM_VREGS vector registers.
 */

#ifndef VIA_CPU_MACHINE_HH
#define VIA_CPU_MACHINE_HH

#include <array>
#include <cstdint>
#include <memory>

#include "cpu/core_params.hh"
#include "cpu/ooo_core.hh"
#include "cpu/vector_backend.hh"
#include "isa/inst.hh"
#include "isa/vreg.hh"
#include "mem/backing_store.hh"
#include "mem/mem_system.hh"
#include "simcore/stats.hh"
#include "trace/trace.hh"
#include "via/fivu.hh"
#include "via/sspm.hh"

namespace via
{

namespace check
{
class TimingInvariantChecker;
}

namespace sample
{
class FunctionalExecutor;
}

/**
 * Decides, per instruction, whether the machine folds it into the
 * detailed timing schedule or runs it through the functional warming
 * path (src/sample). Implemented by the interval-sampling driver; a
 * null policy means always detailed. Architectural results are
 * identical either way — the emit API executes semantics before the
 * policy is consulted.
 */
class ExecPolicy
{
  public:
    virtual ~ExecPolicy() = default;

    /** True: detailed timing for @p inst. False: functional warm. */
    virtual bool detailedNext(const Inst &inst) = 0;
};

/** Handle to a vector register. */
struct VReg
{
    int id = -1;
};

/** Handle to a scalar register. */
struct SReg
{
    int id = -1;
};

/** "No register" for optional dependence operands. */
inline constexpr SReg NO_SREG{-1};

/** Destination selector for vidx arithmetic (paper: `output`). */
enum class ViaOut : std::uint8_t { Vrf, Sspm };

/** The simulated machine: state + emit API. */
class Machine
{
  public:
    explicit Machine(const MachineParams &params);

    /**
     * Construct one core of a multi-core machine: architectural
     * memory is the caller's @p shared_store (shared by all cores),
     * and this core's private cache levels route their misses to
     * @p llc tagged with @p core_id. The caller (MultiMachine) owns
     * both and must outlive this Machine.
     */
    Machine(const MachineParams &params, BackingStore &shared_store,
            SharedLlc &llc, unsigned core_id);

    /**
     * Runs the attached invariant checker (if any) and aborts on
     * violation; with VIA_CHECK=1 every Machine teardown therefore
     * verifies the whole run, unless a loadState threw and left the
     * machine half-written. Out of line for the checker's type.
     */
    ~Machine();

    // --- subsystem access ---------------------------------------
    BackingStore &mem() { return *_mem; }
    const BackingStore &mem() const { return *_mem; }
    MemSystem &memSystem() { return *_memSys; }
    const MemSystem &memSystem() const { return *_memSys; }
    Sspm &sspm() { return *_sspm; }
    const Sspm &sspm() const { return *_sspm; }
    Fivu &fivu() { return *_fivu; }
    const Fivu &fivu() const { return *_fivu; }
    /** The vector-unit backend this machine was built over. */
    VectorBackend &backend() { return *_backend; }
    const VectorBackend &backend() const { return *_backend; }
    BackendKind backendKind() const { return _backend->kind(); }
    OoOCore &core() { return *_core; }
    const OoOCore &core() const { return *_core; }
    const MachineParams &params() const { return _params; }
    StatSet &stats() { return _stats; }
    const StatSet &stats() const { return _stats; }

    /**
     * Turn on event tracing with a ring of @p limit events, wiring
     * the sink through every subsystem. Tracing is per-Machine (no
     * shared state), so traced Machines on different sweep threads
     * stay race-free and deterministic, and it is observation-only:
     * timing and statistics are bit-identical with tracing off.
     */
    void enableTracing(std::size_t limit);

    /** The attached trace sink, or nullptr when tracing is off. */
    TraceManager *trace() { return _trace.get(); }
    const TraceManager *trace() const { return _trace.get(); }

    /**
     * Attach a timing-invariant checker (src/check) observing this
     * machine; no-op if one is already attached. Constructed
     * automatically when VIA_CHECK is set in the environment.
     * Observation-only: timing is bit-identical with or without it.
     */
    check::TimingInvariantChecker &attachChecker();

    /** The attached checker, or nullptr. */
    check::TimingInvariantChecker *checker() { return _checker.get(); }

    /**
     * Open a named kernel phase at the current makespan (shows as a
     * span on the trace's kernel track). No-op when not tracing.
     */
    void tracePhase(const std::string &name);

    /** Element type of values (F32 by default, 4-byte SSPM blocks). */
    ElemType valueType() const { return _params.valueType; }
    /** Element type of indices (I32 by default). */
    ElemType indexType() const { return _params.indexType; }
    /** Lanes per vector op for the value type. */
    std::uint32_t vl() const { return lanesFor(_params.valueType); }

    /** Makespan so far (commit tick of the youngest instruction). */
    Tick cycles() const { return _core->finishTick(); }

    /**
     * Select detailed vs functional execution per instruction
     * (nullptr reverts to always-detailed). Non-owning: the policy
     * must outlive the machine or be detached before it goes away.
     */
    void setExecPolicy(ExecPolicy *policy) { _policy = policy; }
    ExecPolicy *execPolicy() { return _policy; }

    /** The functional fast-forward executor and its statistics. */
    sample::FunctionalExecutor &functional() { return *_func; }
    const sample::FunctionalExecutor &
    functional() const
    {
        return *_func;
    }

    /**
     * Serialize the complete machine state: architectural memory and
     * registers, cache/DRAM/SSPM/CAM/core microarchitectural state,
     * statistics, and the simulated clock (the commit front, cycles()).
     * Throws SerializeError for a core of a multi-core machine.
     */
    void saveState(Serializer &ser) const;
    /**
     * Restore state saved by saveState into this machine. The
     * machine must be configured identically (element types, cache
     * geometry, SSPM size, core sizing) or SerializeError is thrown,
     * as it is when the stored clock disagrees with the restored
     * core's commit front. Each section is applied as it is read, so
     * a throw leaves the machine half-written: it must be discarded,
     * and its teardown skips the invariant check until a later
     * loadState completes.
     */
    void loadState(Deserializer &des);

    // --- architectural state (tests, result extraction) ----------
    VecValue &vreg(VReg r);
    std::uint64_t sregRaw(SReg r) const;
    std::int64_t sregI(SReg r) const;
    void setSregI(SReg r, std::int64_t v); //!< host-side poke

    // ==============================================================
    // Scalar emits
    // ==============================================================

    /** Materialize an immediate (no input dependencies). */
    void simm(SReg dst, std::int64_t value);

    /**
     * Scalar ALU op with host-computed result: models the dependency
     * and latency; the semantic value is supplied by the kernel.
     */
    void salu(SReg dst, std::int64_t result, SReg a = NO_SREG,
              SReg b = NO_SREG);

    /** Scalar FP add: dst(F) = a(F) + b(F) as doubles. */
    void sfadd(SReg dst, SReg a, SReg b);
    /** Scalar FP multiply: dst(F) = a(F) * b(F) as doubles. */
    void sfmul(SReg dst, SReg a, SReg b);

    /** A well-predicted conditional branch (loop back-edges). */
    void sbranch(SReg cond = NO_SREG);

    /**
     * A data-dependent conditional branch, predicted by a 2-bit
     * counter at @p site. Mispredictions stall the front end for
     * mispredictPenalty cycles past the branch's resolution — this
     * is what makes sorted-merge loops slow on real hardware.
     *
     * @param cond register the branch resolves against
     * @param site static branch identity (per source location)
     * @param taken actual outcome this execution
     */
    void sbranchData(SReg cond, std::uint64_t site, bool taken);

    /** Scalar load of `bytes` (zero-extended into the register). */
    void sload(SReg dst, Addr addr, std::uint32_t bytes = 8,
               SReg addr_dep = NO_SREG);

    /** Scalar store of the low `bytes` of @p src. */
    void sstore(Addr addr, SReg src, std::uint32_t bytes = 8,
                SReg addr_dep = NO_SREG);

    /**
     * Scalar FP load: reads one element of type @p t from memory and
     * holds it in the register as a double (sregF view).
     */
    void sloadF(SReg dst, Addr addr, ElemType t,
                SReg addr_dep = NO_SREG);

    /** Scalar FP store of sregF(src) as one element of type @p t. */
    void sstoreF(Addr addr, SReg src, ElemType t,
                 SReg addr_dep = NO_SREG);

    // ==============================================================
    // Vector emits (vl < 0 means "full vector for this elem type")
    // ==============================================================

    void vload(VReg dst, Addr addr, ElemType t, int vl = -1,
               SReg addr_dep = NO_SREG);
    void vstore(Addr addr, VReg src, ElemType t, int vl = -1,
                SReg addr_dep = NO_SREG);

    /** dst[l] = mem[base + idx[l]*elemBytes(t)] for active lanes. */
    void vgather(VReg dst, Addr base, VReg idx, ElemType t,
                 int vl = -1);
    /** mem[base + idx[l]*elemBytes(t)] = src[l]. */
    void vscatter(Addr base, VReg idx, VReg src, ElemType t,
                  int vl = -1);

    void vbroadcastF(VReg dst, double v);
    void vbroadcastI(VReg dst, std::int64_t v);
    /** dst[l] = base + l*step for all lanes. */
    void viotaI(VReg dst, std::int64_t base, std::int64_t step = 1);
    /**
     * Materialize an arbitrary integer lane pattern (compilers load
     * such constants from the constant pool; modelled as one vector
     * ALU op). Missing lanes read zero.
     */
    void vpatternI(VReg dst, const std::vector<std::int64_t> &lanes);

    void vaddF(VReg dst, VReg a, VReg b, int vl = -1);
    void vmulF(VReg dst, VReg a, VReg b, int vl = -1);
    /** dst[l] = a[l]*b[l] + c[l]. */
    void vfmaF(VReg dst, VReg a, VReg b, VReg c, int vl = -1);

    void vaddI(VReg dst, VReg a, VReg b, int vl = -1);
    void vsubI(VReg dst, VReg a, VReg b, int vl = -1);
    /** dst[l] = (a[l] <  b[l]) ? 1 : 0. */
    void vcmpLtI(VReg dst, VReg a, VReg b, int vl = -1);

    /** Horizontal FP sum of active lanes into a scalar register. */
    void vredsumF(SReg dst, VReg src, int vl = -1);
    /** Read a scalar register as the value type's float. */
    double sregF(SReg r) const;
    /** Host-side poke of a float into a scalar register. */
    void setSregF(SReg r, double v);

    /** dst[l] = a[l] & imm. */
    void vandI(VReg dst, VReg src, std::int64_t imm, int vl = -1);
    /** dst[l] = a[l] >> shift (arithmetic). */
    void vshrI(VReg dst, VReg src, std::uint32_t shift, int vl = -1);

    /** Pack lanes with mask[l] != 0 to the front of dst. */
    void vcompress(VReg dst, VReg src, VReg mask, int vl = -1);
    /**
     * Expand with an immediate bitmask (AVX-512 k-register style):
     * dst[l] = (mask >> l) & 1 ? src[k++] : 0. The optional scalar
     * dependence models the mask arriving from a header load.
     */
    void vexpandMask(VReg dst, VReg src, std::uint32_t mask,
                     int vl = -1, SReg mask_dep = NO_SREG);
    /** AVX512CD-like: dst[l] = bitmask of lanes j<l, idx[j]==idx[l]. */
    void vconflict(VReg dst, VReg idx, int vl = -1);
    /**
     * Conflict-merge macro-op (the permutation sequence of [39]):
     * dst[l] = sum of src[j] over all lanes j with idx[j] == idx[l].
     * After this, a scatter by idx is conflict-safe: the last write
     * per duplicate index carries the full combined value.
     */
    void vmergeIdx(VReg dst, VReg src, VReg idx, int vl = -1);

    // ==============================================================
    // VIA emits (paper Section IV-C)
    // ==============================================================

    /** vidx.clear full mode. */
    void vidxClear();
    /** vidx.clear segment mode: valid bits in [lo, hi). */
    void vidxClearSegment(std::uint64_t lo, std::uint64_t hi);
    /** vidx.count: element count register -> scalar register. */
    void vidxCount(SReg dst);

    /** vidx.load.d: SSPM[idx[l]] = data[l] (direct-mapped). */
    void vidxLoadD(VReg data, VReg idx, int vl = -1);
    /** vidx.load.c: CAM insert/overwrite key[l] -> data[l]. */
    void vidxLoadC(VReg data, VReg keys, int vl = -1);
    /** vidx.mov: dst[l] = SSPM[idx[l]] (invalid entries read 0). */
    void vidxMov(VReg dst, VReg idx, int vl = -1);
    /** vidx.keys: dst[l] = indexTable[slot_offset + l]. */
    void vidxKeys(VReg dst, std::uint32_t slot_offset, int vl = -1);
    /** vidx.vals: dst[l] = SRAM[slot_offset + l]. */
    void vidxVals(VReg dst, std::uint32_t slot_offset, int vl = -1);

    /**
     * vidx.{add,sub,mul}.d — direct-mapped mode.
     * Reads SSPM[idx[l]], combines with data[l]; the result goes to
     * @p dst (out == Vrf) or to SSPM[idx[l] + offset] (out == Sspm).
     */
    void vidxAddD(VReg data, VReg idx, ViaOut out, VReg dst,
                  std::int64_t offset, int vl = -1);
    void vidxSubD(VReg data, VReg idx, ViaOut out, VReg dst,
                  std::int64_t offset, int vl = -1);
    void vidxMulD(VReg data, VReg idx, ViaOut out, VReg dst,
                  std::int64_t offset, int vl = -1);

    /**
     * vidx.{add,sub,mul}.c — CAM mode.
     * out == Vrf: dst[l] = match ? SSPM[slot] op data[l] : 0.
     * out == Sspm: union read-modify-write — matching keys combine
     * in place, absent keys insert data[l] (SpMA semantics).
     * A full CAM on insert is a fatal error (kernels must tile).
     */
    void vidxAddC(VReg data, VReg keys, ViaOut out, VReg dst,
                  int vl = -1);
    void vidxSubC(VReg data, VReg keys, ViaOut out, VReg dst,
                  int vl = -1);
    void vidxMulC(VReg data, VReg keys, ViaOut out, VReg dst,
                  int vl = -1);

    /**
     * vidx.blkmul.d — CSB block multiply-accumulate.
     * For each active lane: col = idx[l] & ((1<<idx_offset)-1),
     * row = idx[l] >> idx_offset;
     * SSPM[row + offset] += SSPM[col] * data[l].
     */
    void vidxBlkMulD(VReg data, VReg idx, std::uint32_t idx_offset,
                     std::int64_t offset, int vl = -1);

    // ==============================================================
    // SSR emits (backend=ssr; arXiv 2011.08070)
    // ==============================================================

    /**
     * ssr.cfg affine: bind stream register @p s to the unit-stride
     * sequence of @p t elements starting at @p base. Resets the
     * stream's cursor.
     */
    void ssrBindAffine(std::uint32_t s, Addr base, ElemType t);

    /**
     * ssr.cfg indirect: bind stream register @p s so each pop reads
     * the next index from @p idx_base and returns
     * mem[data_base + index * elemBytes(data_t)].
     */
    void ssrBindIndirect(std::uint32_t s, Addr idx_base,
                         ElemType idx_t, Addr data_base,
                         ElemType data_t);

    /**
     * ssr.popv: dst[l] = the stream's next @p vl elements; the
     * cursor advances by @p advance elements (default: vl — pass a
     * larger value to skip padding, e.g. SELL chunks with fewer
     * active rows than the chunk height).
     */
    void ssrPopV(VReg dst, std::uint32_t s, int vl = -1,
                 int advance = -1);

    /** ssr.pops: dst = the stream's next element (FP view for FP
     *  data types, integer view otherwise). */
    void ssrPopS(SReg dst, std::uint32_t s);

    /**
     * ssr.fma: acc[l] += val[l] * gather[l] where val streams from
     * @p val_s (affine) and gather[l] reads the data array of
     * indirect stream @p idx_s at its next indices — the fused
     * stream-FMA that replaces the load/gather/FMA triple. Both
     * cursors advance by @p advance (default vl).
     */
    void ssrFma(VReg acc, std::uint32_t val_s, std::uint32_t idx_s,
                int vl = -1, int advance = -1);

    // ==============================================================
    // IndexMAC emits (backend=indexmac; arXiv 2311.07241)
    // ==============================================================

    /**
     * vimac.f: acc[l] += val[l] * mem[base + idx[l]*elemBytes(vt)]
     * for active lanes. Lanes whose source line sits in the row
     * buffer skip their cache access.
     */
    void vimacF(VReg acc, Addr base, VReg idx, VReg val, int n = -1);

    /**
     * vimac.st.f: mem[base + idx[l]*elemBytes(vt)] += val[l], lanes
     * processed in order so duplicate indices accumulate serially
     * (no software conflict handling needed). Row-buffer hits skip
     * the cache access.
     */
    void vimacStF(Addr base, VReg idx, VReg val, int n = -1);

  private:
    enum class ArithKind : std::uint8_t { Add, Sub, Mul };

    /** Common constructor; null pointers mean single-core. */
    Machine(const MachineParams &params, BackingStore *shared_store,
            SharedLlc *llc, unsigned core_id);

    std::uint32_t resolveVl(ElemType t, int vl) const;
    Inst makeInst(Op op, int vl, std::int16_t dst, std::int16_t s0,
                  std::int16_t s1 = REG_NONE,
                  std::int16_t s2 = REG_NONE);

    /**
     * Route one emitted instruction: detailed schedule (default) or
     * functional warming, per the attached ExecPolicy. Every emit
     * funnels through here after its architectural execution.
     */
    void issue(const Inst &inst);
    static std::int16_t vid(VReg r);
    static std::int16_t sid(SReg r);

    /** The backend downcast to SSR; fatal on any other kind. */
    SsrBackend &ssr();
    /** The backend downcast to IndexMAC; fatal on any other kind. */
    IndexMacBackend &imac();

    double combineF(ArithKind k, double a, double b) const;
    void vidxArithD(Op op, ArithKind k, VReg data, VReg idx,
                    ViaOut out, VReg dst, std::int64_t offset,
                    int vl);
    void vidxArithC(Op op, ArithKind k, VReg data, VReg keys,
                    ViaOut out, VReg dst, int vl);

    MachineParams _params;
    BackingStore _store;
    /** Architectural memory: own _store, or the shared multi-core
     *  store. All emit semantics go through this pointer. */
    BackingStore *_mem = &_store;
    std::unique_ptr<MemSystem> _memSys;
    std::unique_ptr<Sspm> _sspm;
    std::unique_ptr<Fivu> _fivu;
    std::unique_ptr<VectorBackend> _backend;
    std::unique_ptr<OoOCore> _core;
    std::unique_ptr<sample::FunctionalExecutor> _func;
    ExecPolicy *_policy = nullptr;

    VecRegFile _vrf;
    std::array<std::uint64_t, NUM_SREGS> _srf{};

    StatSet _stats;
    SeqNum _seq = 0;
    std::unique_ptr<TraceManager> _trace;
    /** A loadState threw part-way (see loadState). */
    bool _halfLoaded = false;
    /** Declared last: detaches from _core before it is destroyed. */
    std::unique_ptr<check::TimingInvariantChecker> _checker;
};

} // namespace via

#endif // VIA_CPU_MACHINE_HH
