/**
 * @file
 * Sampled-vs-detailed error-bound audit (the validation subsystem's
 * third leg, next to differential fuzzing and the timing-invariant
 * catalog; see docs/validation.md and docs/sampling.md).
 *
 * Interval sampling extrapolates whole-run cycles from measured
 * windows, so its one quantitative promise is a bounded error
 * against the detailed model. The audit makes that promise
 * checkable on any small input: run the same kernel body once
 * detailed and once sampled on identically configured machines and
 * compare end-to-end cycles. `via_sim mode=sampled` runs it
 * automatically under VIA_CHECK=1 and folds the verdict into its
 * exit code, and tests/test_sample.cc pins the bound in ctest.
 *
 * An estimate flagged `exact` (the run was too short to ever
 * fast-forward) must match the detailed cycle count to the cycle —
 * the sampled machine executed every instruction detailed, so any
 * difference is a policy-plumbing bug, not sampling noise.
 */

#ifndef VIA_CHECK_SAMPLING_AUDIT_HH
#define VIA_CHECK_SAMPLING_AUDIT_HH

#include <cstdint>
#include <functional>
#include <string>

#include "cpu/core_params.hh"
#include "sample/sampling.hh"

namespace via
{

class Machine;

namespace check
{

/** Outcome of one sampled-vs-detailed comparison. */
struct SamplingAudit
{
    double detailedCycles = 0.0; //!< exact makespan, detailed run
    double sampledCycles = 0.0;  //!< extrapolated (or exact) cycles
    double relError = 0.0; //!< |sampled - detailed| / detailed
    double bound = 0.0;    //!< the tolerance this audit applied
    std::uint64_t intervals = 0; //!< measured windows in the estimate
    bool exact = false;          //!< the sampled run never fast-forwarded
    bool ok = false;             //!< within bound (exact: to the cycle)

    /** One-line human-readable verdict. */
    std::string summary() const;
};

/**
 * Audit an estimate: run @p body once on a fresh detailed machine
 * configured with @p params and compare against @p est, which the
 * caller took from its own sampled run (sample::runWith).
 */
SamplingAudit
auditEstimate(const MachineParams &params,
              const sample::SampleEstimate &est,
              const std::function<void(Machine &)> &body,
              double bound = 0.05);

} // namespace check
} // namespace via

#endif // VIA_CHECK_SAMPLING_AUDIT_HH
