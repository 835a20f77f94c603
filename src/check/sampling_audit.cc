#include "check/sampling_audit.hh"

#include <cmath>
#include <cstdio>

#include "cpu/machine.hh"

namespace via
{
namespace check
{

std::string
SamplingAudit::summary() const
{
    char buf[160];
    if (exact) {
        std::snprintf(buf, sizeof(buf),
                      "sampling audit: %s (exact run, %.0f vs %.0f "
                      "detailed cycles)",
                      ok ? "ok" : "FAIL", sampledCycles,
                      detailedCycles);
    } else {
        std::snprintf(buf, sizeof(buf),
                      "sampling audit: %s (%.2f%% error vs detailed,"
                      " bound %.2f%%, %llu windows)",
                      ok ? "ok" : "FAIL", relError * 100.0,
                      bound * 100.0,
                      static_cast<unsigned long long>(intervals));
    }
    return buf;
}

SamplingAudit
auditEstimate(const MachineParams &params,
              const sample::SampleEstimate &est,
              const std::function<void(Machine &)> &body,
              double bound)
{
    SamplingAudit audit;
    audit.bound = bound;
    audit.sampledCycles = est.cycles;
    audit.intervals = est.intervals;
    audit.exact = est.exact;

    Machine detailed(params);
    body(detailed);
    audit.detailedCycles = double(detailed.cycles());

    if (audit.detailedCycles > 0.0) {
        audit.relError =
            std::abs(audit.sampledCycles - audit.detailedCycles) /
            audit.detailedCycles;
    } else {
        audit.relError = audit.sampledCycles > 0.0 ? 1.0 : 0.0;
    }
    audit.ok = audit.exact ? audit.relError == 0.0
                           : audit.relError <= bound;
    return audit;
}

} // namespace check
} // namespace via
