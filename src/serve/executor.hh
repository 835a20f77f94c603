/**
 * @file
 * The batch executor: measure the service table with the
 * cycle-level simulator.
 *
 * Single-core path (cores=1): each class's matrix is made resident
 * on a fresh machine (kernels::SpmvResident — convert + upload
 * once), warmed with one run, and captured as a checkpoint. Every
 * batch-size measurement restores that one image onto a fresh
 * machine (fan-out: one warm image, batchMax restores per class)
 * and runs n requests back to back. The measured cost is the
 * marginal cycles past the warm point; energy is the marginal
 * energy-model total.
 *
 * Multi-core path (cores=N): its cores cannot checkpoint (the
 * shared LLC carries unserializable in-flight analytic state), so
 * each (class, n) point builds a fresh machine, warms it with one
 * parallel run, and measures n more runs. Every SpMV format is
 * servable multi-core (kernels::spmvParallel runs them all), but
 * because the parallel kernels re-upload per run, multi-core
 * batches amortize scheduling only, not residency — the documented
 * PR-6 limitation.
 *
 * Points fan out across a SweepExecutor; every per-point stream is
 * derived from (seed, point index), so the table is bit-identical
 * at any threads=N.
 */

#ifndef VIA_SERVE_EXECUTOR_HH
#define VIA_SERVE_EXECUTOR_HH

#include <cstdint>
#include <vector>

#include "cpu/machine.hh"
#include "kernels/parallel.hh"
#include "serve/request.hh"
#include "serve/service.hh"

namespace via::serve
{

/** How to measure the service table. */
struct ExecutorConfig
{
    MachineParams params{};
    unsigned cores = 1;
    SharedLlcParams llc{}; //!< used when cores > 1
    kernels::Partition partition = kernels::Partition::Static;
    /** The kernels of the machine's backend (VIA, SSR, IndexMAC)
     *  vs the vector baseline. */
    bool via = false;
    unsigned batchMax = 8;  //!< largest batch to price
    unsigned threads = 1;   //!< measurement pool width (0 = auto)
    std::uint64_t seed = 1;
};

/**
 * Measure cost/energy for every (class, batch size in 1..batchMax)
 * pair. Fatal when a class names an unknown SpMV format.
 */
TableServiceModel measureServiceTable(
    const std::vector<RequestClass> &mix, const ExecutorConfig &cfg);

} // namespace via::serve

#endif // VIA_SERVE_EXECUTOR_HH
