/**
 * @file
 * Analytic out-of-order core model.
 *
 * OoOCore consumes the dynamic instruction stream in program order
 * and computes, per instruction, its dispatch, issue, completion and
 * commit ticks using greedy list scheduling over:
 *
 *   - dispatch bandwidth (in order, dispatchWidth/cycle),
 *   - ROB occupancy (dispatch stalls until the reused entry retired),
 *   - data dependencies through the register ready table,
 *   - functional-unit bandwidth per class,
 *   - L1 load/store ports: gathers and scatters issue one cache
 *     access per active element,
 *   - memory ordering: loads wait for overlapping older stores,
 *   - the vector backend: VIA instructions become eligible only when
 *     non-speculative (commit-time execution, paper Section IV-E)
 *     and serialize on the FIVU/SSPM ports; SSR stream binds occupy
 *     the descriptor sequencer and gate later pops; backends may
 *     also constrain when a memory instruction becomes eligible
 *     (VectorBackend::memEligible).
 *
 * The model folds each pushed Inst into O(window) state; it keeps no
 * instruction history of its own. Branches are treated as perfectly
 * predicted. When a TraceManager is attached (src/trace), the
 * computed lifecycle ticks of every instruction are emitted as
 * observation-only events; with no manager attached the hook is a
 * single null check.
 */

#ifndef VIA_CPU_OOO_CORE_HH
#define VIA_CPU_OOO_CORE_HH

#include <array>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "cpu/core_params.hh"
#include "cpu/fu_pool.hh"
#include "cpu/lsq.hh"
#include "cpu/rob.hh"
#include "cpu/vector_backend.hh"
#include "isa/inst.hh"
#include "mem/mem_system.hh"
#include "simcore/stats.hh"
#include "simcore/types.hh"
#include "trace/trace.hh"
#include "via/fivu.hh"

namespace via
{

/** Lifecycle ticks of one instruction through the core. */
struct InstTiming
{
    Tick dispatch = 0;
    Tick issue = 0;
    Tick complete = 0;
    Tick commit = 0;
};

/**
 * Observer of per-instruction lifecycle timing. Implemented by the
 * invariant checker (src/check); observation-only — implementations
 * must not feed anything back into the schedule.
 */
class TimingObserver
{
  public:
    virtual ~TimingObserver() = default;

    /** Called once per push, after the schedule folded @p inst in. */
    virtual void onInstTiming(const Inst &inst,
                              const InstTiming &timing) = 0;

    /**
     * Called when core timing is reset (new measurement interval);
     * cross-interval monotonicity no longer holds after this.
     */
    virtual void onTimingReset() = 0;
};

/** Core-level statistics. */
struct CoreStats
{
    std::uint64_t insts = 0;
    std::uint64_t viaInsts = 0;
    std::uint64_t memInsts = 0;
    std::uint64_t vectorInsts = 0;
    std::uint64_t scalarInsts = 0;
    std::uint64_t cacheAccesses = 0; //!< element accesses issued
    std::uint64_t gatherElements = 0;
    std::uint64_t branches = 0;      //!< data-dependent branches
    std::uint64_t mispredicts = 0;
    std::uint64_t commitTick = 0;    //!< running makespan
};

/** Greedy list-scheduling OoO timing model. */
class OoOCore
{
  public:
    /**
     * @param params core sizing
     * @param mem the shared memory hierarchy
     * @param backend the vector-unit backend (shared with the
     *        Machine facade, which owns it)
     */
    OoOCore(const CoreParams &params, MemSystem &mem,
            VectorBackend &backend);

    /** Fold one instruction (program order) into the schedule. */
    void push(const Inst &inst);

    /** Commit tick of the youngest instruction (the makespan). */
    Tick finishTick() const { return _rob.commitFront(); }

    /** Completion tick of the youngest value written (drain). */
    Tick lastComplete() const { return _lastComplete; }

    /**
     * Reset all timing state for a new measurement interval.
     *
     * @param keep_predictor keep the branch counter table. The
     *        sampling driver warms the predictor during functional
     *        fast-forward and must not throw that state away at the
     *        start of each measurement interval.
     */
    void resetTiming(bool keep_predictor = false);

    /**
     * Warm the branch predictor without timing: predicts and trains
     * the counter table exactly as push() would, but books no core
     * resources and touches no CoreStats.
     *
     * @return true when the warmed prediction was a mispredict
     */
    bool warmBranch(const Inst &inst);

    const CoreParams &params() const { return _params; }
    CoreStats &stats() { return _stats; }
    const CoreStats &stats() const { return _stats; }

    /** Register core statistics under "core.". */
    void registerStats(StatSet &stats) const;

    /**
     * Attach a trace sink (nullptr detaches). The core emits one
     * InstRetired record per push and stamps any events the
     * functional layer staged for the same instruction.
     */
    void setTrace(TraceManager *trace);

    /** Lifecycle ticks of the most recently pushed instruction. */
    const InstTiming &lastTiming() const { return _lastTiming; }

    /** Read-only views of the schedule structures (debugger). */
    const RobModel &rob() const { return _rob; }
    const SlotPool &loadQueue() const { return _loadQueue; }
    const SlotPool &storeQueue() const { return _storeQueue; }
    const StoreTracker &stores() const { return _stores; }

    /** Attach a timing observer (notified on every push/reset). */
    void addTimingObserver(TimingObserver *obs);
    /** Detach a previously attached observer (no-op if absent). */
    void removeTimingObserver(TimingObserver *obs);

    /** Serialize schedule state, predictor, and statistics. */
    void saveState(Serializer &ser) const;
    /**
     * Restore state saved by saveState. Observers are notified via
     * onTimingReset: the restored schedule is a new timing epoch.
     */
    void loadState(Deserializer &des);

  private:
    /** Combined scalar+vector register-ready table. */
    static constexpr int NUM_REGS = NUM_SREGS + NUM_VREGS;

    Tick regReady(std::int16_t reg) const;
    void setRegReady(std::int16_t reg, Tick when);

    /** Predict and train the counter for one data-dependent branch.
     *  @return true on mispredict */
    bool predictAndTrain(const Inst &inst);

    /** Schedule the memory accesses of @p inst; returns data-ready. */
    Tick scheduleMem(const Inst &inst, Tick issue);

    CoreParams _params;
    MemSystem &_mem;
    VectorBackend &_backend;

    FuPool _fus;
    Resource _dispatchPorts;
    RobModel _rob;
    StoreTracker _stores;
    SlotPool _loadQueue;
    SlotPool _storeQueue;

    std::array<Tick, NUM_REGS> _regReady{};
    Tick _lastDispatch = 0;
    Tick _lastComplete = 0;
    Tick _lastBranchResolve = 0; //!< non-speculative point

    /** 2-bit saturating counters for data-dependent branches. */
    std::unordered_map<std::uint32_t, std::uint8_t> _branchTable;

    CoreStats _stats;
    TraceManager *_trace = nullptr;
    InstTiming _lastTiming;
    std::vector<TimingObserver *> _timingObservers;
};

} // namespace via

#endif // VIA_CPU_OOO_CORE_HH
