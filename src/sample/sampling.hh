/**
 * @file
 * Interval sampling (SMARTS-style) over the execute-at-issue stream.
 *
 * The instruction stream is divided into fixed-size units of
 * `interval` instructions. Each unit runs:
 *
 *   warmup   — detailed, after dropping the previous interval's
 *              timing state (branch predictor kept: it was warmed
 *              through the fast-forward);
 *   measure  — detailed; the commit-tick delta over these
 *              instructions yields one CPI sample;
 *   the rest — functional fast-forward (cache tags, predictor and
 *              DRAM byte counters stay warm, no schedule work).
 *
 * Ordering warmup and measurement at the *front* of each unit means
 * even a run shorter than one interval produces a sample. The final
 * estimate extrapolates mean measured CPI over all instructions and
 * reports a 95% confidence interval from the sample variance.
 */

#ifndef VIA_SAMPLE_SAMPLING_HH
#define VIA_SAMPLE_SAMPLING_HH

#include <cstdint>
#include <string>
#include <vector>

#include "cpu/machine.hh"
#include "sample/functional.hh"
#include "simcore/options.hh"

namespace via
{
namespace sample
{

/** How the machine executes the instruction stream. */
enum class SimMode
{
    Detailed,   //!< every instruction through the OoO schedule
    Functional, //!< every instruction through the warming path
    Sampled,    //!< interval sampling (this file)
};

/** The mode named @p text, one of the mode= key's values
 *  (detailed|functional|sampled). */
SimMode modeFromString(const std::string &text);

/** Knobs of the sampling driver. */
struct SampleOptions
{
    SimMode mode = SimMode::Detailed;
    std::uint64_t interval = 100000; //!< instructions per unit
    std::uint64_t warmup = 2000;     //!< detailed warmup per unit
    std::uint64_t measure = 3000;    //!< measured insts per unit

    /**
     * Read mode=, sample_interval=, sample_warmup= and
     * sample_measure= from @p opts. Under mode=sampled, warmup and
     * measurement phases that do not fit in the interval are a
     * usage error (exit 2).
     */
    static SampleOptions fromOptions(const Options &opts);

    /** Usage error (exit 2) through @p opts unless the warmup and
     *  measurement phases fit in the interval (Sampler's
     *  precondition). */
    void requirePhasesFit(const Options &opts) const;
};

/**
 * Register the sampling keys (mode, sample_interval, sample_warmup,
 * sample_measure) with an Options registry; defaults mirror
 * SampleOptions.
 */
void addSampleOptions(Options &opts);

/** Extrapolated whole-run timing from the measured windows. */
struct SampleEstimate
{
    double cycles = 0.0; //!< extrapolated total cycles
    double cpi = 0.0;    //!< mean measured cycles per instruction
    double ciLow = 0.0;  //!< 95% confidence interval on cycles
    double ciHigh = 0.0;
    std::uint64_t intervals = 0;  //!< complete measured windows
    std::uint64_t totalInsts = 0; //!< all instructions in the run
    bool exact = false; //!< no fast-forward happened: cycles is the
                        //!< detailed makespan, not an extrapolation
};

/**
 * The interval-sampling execution policy. Attaches itself to the
 * machine on construction and detaches on destruction; keep it
 * alive for the whole kernel run, then read estimate().
 */
class Sampler : public ExecPolicy
{
  public:
    /** @param m machine to drive  @param opts sampling knobs */
    Sampler(Machine &m, const SampleOptions &opts);
    ~Sampler() override;

    Sampler(const Sampler &) = delete;
    Sampler &operator=(const Sampler &) = delete;

    bool detailedNext(const Inst &inst) override;

    /** Extrapolate the whole-run cycle count from the samples. */
    SampleEstimate estimate() const;

  private:
    enum class Phase : std::uint8_t { Warmup, Measure, FastForward };

    std::uint64_t phaseLen() const;
    void nextPhase();

    Machine &_m;
    SampleOptions _opts;
    Phase _phase = Phase::Warmup;
    std::uint64_t _inPhase = 0; //!< instructions into current phase
    std::uint64_t _insts = 0;   //!< instructions total
    Tick _measureStart = 0;     //!< commit tick entering measurement
    std::vector<double> _cpis;  //!< one CPI sample per measured window
    bool _fastForwarded = false;
};

/**
 * Whole-run timing under a given mode: runs @p kernel (which emits
 * into @p m) with the right policy attached and returns the cycle
 * estimate. Detailed mode returns the exact makespan; functional
 * mode returns zero cycles (no timing was modelled); sampled mode
 * returns the extrapolation.
 */
template <typename KernelFn>
SampleEstimate
runWith(Machine &m, const SampleOptions &opts, KernelFn &&kernel)
{
    if (opts.mode == SimMode::Detailed) {
        kernel();
        SampleEstimate est;
        est.cycles = double(m.cycles());
        est.ciLow = est.ciHigh = est.cycles;
        est.totalInsts = m.core().stats().insts;
        est.cpi = est.totalInsts
                      ? est.cycles / double(est.totalInsts)
                      : 0.0;
        est.exact = true;
        return est;
    }
    if (opts.mode == SimMode::Functional) {
        struct AllFunctional : ExecPolicy
        {
            bool detailedNext(const Inst &) override { return false; }
        } policy;
        m.setExecPolicy(&policy);
        kernel();
        m.setExecPolicy(nullptr);
        SampleEstimate est;
        est.totalInsts = m.functional().stats().insts;
        return est;
    }
    Sampler sampler(m, opts);
    kernel();
    return sampler.estimate();
}

} // namespace sample
} // namespace via

#endif // VIA_SAMPLE_SAMPLING_HH
