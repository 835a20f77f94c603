/**
 * @file
 * The machine at any core count: one Machine, or N Machines over one
 * shared LLC and DRAM.
 *
 * One core is the single-core machine, Machine(params): its own
 * memory, its private cache hierarchy, DRAM and prefetcher, and no
 * shared LLC. That is the machine of the paper's numbers and of
 * every single-core fingerprint, so the constructor is the one place
 * that decides it. At cores>1 each core is a full Machine (private
 * L1, SSPM, FIVU, index table, OoO core) whose architectural memory
 * is this object's shared BackingStore and whose last private cache
 * level misses into the shared SharedLlc. The kernel runners
 * (src/kernels/parallel.hh) drive the cores with partitioned work,
 * through the Cores view below; each core's emit stream is
 * independent, so per-core timing stays deterministic and the shared
 * level resolves contention and coherence analytically.
 */

#ifndef VIA_CPU_MULTI_MACHINE_HH
#define VIA_CPU_MULTI_MACHINE_HH

#include <memory>
#include <vector>

#include "cpu/machine.hh"
#include "mem/shared_llc.hh"

namespace via
{

/** One core, or N cores over one shared LLC, DRAM and memory. */
class MultiMachine
{
  public:
    /**
     * Build @p cores cores from @p params. One core is
     * Machine(params), and @p llc_params goes unused. At cores>1
     * each core keeps only the first (L1) private cache level; the
     * remaining levels are replaced by the shared LLC described by
     * @p llc_params (typically SharedLlcParams::from(params.mem,
     * cores)).
     */
    MultiMachine(const MachineParams &params, unsigned cores,
                 const SharedLlcParams &llc_params);

    /** Convenience: derive the LLC from the last private level. */
    MultiMachine(const MachineParams &params, unsigned cores);

    unsigned cores() const { return unsigned(_cores.size()); }
    Machine &core(unsigned i) { return *_cores.at(i); }
    const Machine &core(unsigned i) const { return *_cores.at(i); }

    /** The architectural memory every core reads and writes. */
    BackingStore &mem() { return _cores.front()->mem(); }
    const BackingStore &mem() const { return _cores.front()->mem(); }
    /** The shared LLC; only a machine of cores>1 has one. */
    const SharedLlc &llc() const;

    /** Shared-level statistics (llc.*, dram.*), empty at one core.
     *  Per-core counters live in core(i).stats(). */
    StatSet &stats() { return _stats; }

    /** Makespan: the slowest core's commit front. */
    Tick cycles() const;

    /**
     * Enable tracing on every core (independent per-core rings) and
     * attribute shared-level events to core 0's sink.
     */
    void enableTracing(std::size_t limit);

    /** Attach invariant checkers to every core. */
    void attachCheckers();

    const MachineParams &params() const { return _params; }

    /** The per-core parameter derivation (exposed for tests). */
    static MachineParams privateParams(const MachineParams &params);

  private:
    MachineParams _params;
    /** The shared memory and LLC, at cores>1 only. */
    std::unique_ptr<BackingStore> _store;
    std::unique_ptr<SharedLlc> _llc;
    std::vector<std::unique_ptr<Machine>> _cores;
    StatSet _stats;
};

/**
 * The cores a run emits on: one Machine, or every core of a
 * MultiMachine. A non-owning view, built implicitly from either, so
 * the kernel runners (kernels/parallel.hh) take one path at every
 * core count and a run on one Machine is the single-core run.
 */
class Cores
{
  public:
    Cores(Machine &m) : _one(&m) {}
    Cores(MultiMachine &mm) : _many(&mm) {}

    unsigned count() const { return _many ? _many->cores() : 1; }
    Machine &core(unsigned i) const
    {
        return _many ? _many->core(i) : *_one;
    }
    /** Makespan: the latest commit front (one Machine's cycles()). */
    Tick cycles() const
    {
        return _many ? _many->cycles() : _one->cycles();
    }

  private:
    Machine *_one = nullptr;
    MultiMachine *_many = nullptr;
};

} // namespace via

#endif // VIA_CPU_MULTI_MACHINE_HH
