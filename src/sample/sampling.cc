#include "sample/sampling.hh"

#include <cmath>

#include "simcore/log.hh"

namespace via
{
namespace sample
{

SimMode
modeFromString(const std::string &text)
{
    if (text == "functional")
        return SimMode::Functional;
    if (text == "sampled")
        return SimMode::Sampled;
    return SimMode::Detailed;
}

SampleOptions
SampleOptions::fromOptions(const Options &opts)
{
    SampleOptions s;
    s.mode = modeFromString(opts.getString("mode"));
    s.interval = opts.getUInt("sample_interval");
    s.warmup = opts.getUInt("sample_warmup");
    s.measure = opts.getUInt("sample_measure");
    if (s.mode == SimMode::Sampled)
        s.requirePhasesFit(opts);
    return s;
}

void
SampleOptions::requirePhasesFit(const Options &opts) const
{
    if (warmup + measure > interval)
        opts.usageError("sample_warmup + sample_measure (" +
                        std::to_string(warmup + measure) +
                        ") exceeds sample_interval (" +
                        std::to_string(interval) + ")");
}

void
addSampleOptions(Options &opts)
{
    SampleOptions d;
    opts.addString("mode", "detailed",
                   "simulation mode: detailed|functional|sampled",
                   {"detailed", "functional", "sampled"})
        .addUInt("sample_interval", d.interval,
                 "instructions per sampling unit", 1)
        .addUInt("sample_warmup", d.warmup,
                 "detailed warmup instructions per unit")
        .addUInt("sample_measure", d.measure,
                 "measured instructions per unit", 1);
}

Sampler::Sampler(Machine &m, const SampleOptions &opts)
    : _m(m), _opts(opts)
{
    via_assert(opts.measure > 0, "sample_measure must be positive");
    via_assert(opts.warmup + opts.measure <= opts.interval,
               "warmup + measure exceeds the sampling interval");
    _m.setExecPolicy(this);
    // The run starts cold: warmup begins immediately, measurement
    // opens when it completes (nextPhase records the commit base).
    if (_opts.warmup == 0) {
        _phase = Phase::Measure;
        _measureStart = _m.core().stats().commitTick;
    }
}

Sampler::~Sampler()
{
    if (_m.execPolicy() == this)
        _m.setExecPolicy(nullptr);
}

std::uint64_t
Sampler::phaseLen() const
{
    switch (_phase) {
      case Phase::Warmup:
        return _opts.warmup;
      case Phase::Measure:
        return _opts.measure;
      case Phase::FastForward:
        return _opts.interval - _opts.warmup - _opts.measure;
    }
    via_panic("bad sampling phase");
}

void
Sampler::nextPhase()
{
    _inPhase = 0;
    switch (_phase) {
      case Phase::Warmup:
        _phase = Phase::Measure;
        _measureStart = _m.core().stats().commitTick;
        break;
      case Phase::Measure: {
        Tick now = _m.core().stats().commitTick;
        _cpis.push_back(double(now - _measureStart) /
                        double(_opts.measure));
        _phase = Phase::FastForward;
        break;
      }
      case Phase::FastForward:
        // New unit: drop the stale schedule (absolute ticks from
        // before the fast-forward) but keep the warmed predictor.
        _m.core().resetTiming(/*keep_predictor=*/true);
        _phase = Phase::Warmup;
        if (_opts.warmup == 0) {
            _phase = Phase::Measure;
            _measureStart = _m.core().stats().commitTick;
        }
        break;
    }
}

bool
Sampler::detailedNext(const Inst &)
{
    // Transitions happen on entry of the next phase's first
    // instruction, so measurement bookkeeping reads the commit tick
    // *after* the window's last instruction went through the core.
    // A zero-length fast-forward phase (interval == warmup+measure)
    // must be skipped entirely, hence the loop.
    while (_inPhase >= phaseLen())
        nextPhase();
    ++_inPhase;
    ++_insts;
    if (_phase == Phase::FastForward) {
        _fastForwarded = true;
        return false;
    }
    return true;
}

SampleEstimate
Sampler::estimate() const
{
    SampleEstimate est;
    est.totalInsts = _insts;
    est.intervals = _cpis.size();

    // A run too short to close one measurement window ran entirely
    // detailed (warmup and measurement lead each unit): the core's
    // makespan is exact, and likewise if fast-forward never engaged.
    if (_cpis.empty() || !_fastForwarded) {
        est.cycles = double(_m.cycles());
        est.ciLow = est.ciHigh = est.cycles;
        est.cpi = _insts ? est.cycles / double(_insts) : 0.0;
        est.exact = true;
        return est;
    }

    double mean = 0.0;
    for (double c : _cpis)
        mean += c;
    mean /= double(_cpis.size());

    double var = 0.0;
    for (double c : _cpis)
        var += (c - mean) * (c - mean);
    auto n = double(_cpis.size());
    double sdev = n > 1.0 ? std::sqrt(var / (n - 1.0)) : 0.0;
    double half = 1.96 * sdev / std::sqrt(n);

    est.cpi = mean;
    est.cycles = mean * double(_insts);
    est.ciLow = (mean - half) * double(_insts);
    est.ciHigh = (mean + half) * double(_insts);
    return est;
}

} // namespace sample
} // namespace via
