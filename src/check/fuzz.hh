/**
 * @file
 * Deterministic differential fuzzing of the kernels (the validation
 * subsystem's second half; see docs/validation.md).
 *
 * Each seed deterministically generates an adversarial input —
 * sparse structures with empty rows/columns, duplicate coordinates,
 * banded/power-law/dense-block mixes, skewed histogram keys, odd
 * image sizes — and runs the kernels across several machine
 * configurations, baseline and VIA variants alike. Every run is
 * diffed against the host golden reference, and a
 * TimingInvariantChecker verifies the timing model's internal
 * consistency. Each seed runs to its first failure and prints a
 * single replayable line, so `via_fuzz seed=S kernel=K` reproduces
 * it exactly; the campaign itself runs every seed, so one bad seed
 * never masks another.
 *
 * Seeds share no state (each draws from its own splitmix64
 * sub-streams), so with threads > 1 the campaign fans out over a
 * SweepExecutor. Per-seed output is buffered and printed in seed
 * order after collection: a threads=N run is bit-identical to a
 * serial one.
 */

#ifndef VIA_CHECK_FUZZ_HH
#define VIA_CHECK_FUZZ_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "cpu/core_params.hh"
#include "simcore/rng.hh"
#include "sparse/csr.hh"

namespace via
{

class Machine;

namespace check
{

/** Fuzz campaign configuration. */
struct FuzzOptions
{
    std::uint64_t seeds = 100;    //!< number of seeds to run
    std::uint64_t firstSeed = 1;  //!< first seed (replay: seeds=1)
    std::string kernel = "all";   //!< all | spmv | spma | spmm |
                                  //!< histogram | stencil
    unsigned threads = 1;         //!< worker threads (0 = hardware)
    bool verbose = false;         //!< per-seed progress on stderr

    /**
     * The accelerated variant every seed differentials against the
     * host goldens: the VIA kernels by default, or the SSR /
     * IndexMAC baseline backends (machines are built over the
     * matching VectorBackend). backend=base re-runs the software
     * kernels in the accelerated slot — a self-consistency mode.
     * Every backend also runs at cores>1: each kernel's one runner
     * reads the same per-backend range bodies at any core count.
     */
    BackendKind backend = BackendKind::Via;

    /**
     * Every kernel runs through its runner (src/kernels/parallel.hh)
     * on a one-core MultiMachine, which is the single-core machine;
     * with cores > 1 each seed runs the kernels again on a
     * cores-core MultiMachine, diffed against the same host goldens
     * with an invariant checker on every core. The partitioning
     * policy alternates with the seed's parity (even = static, odd =
     * steal), so both schedulers fuzz without a separate knob; a
     * failing multi-core run's FAIL line carries cores=N and the
     * partition, and its replay line cores=N.
     */
    unsigned cores = 1;

    /**
     * Self-test hook: applied to core 0 of each machine after its
     * kernel ran but before the invariant checks, so a deliberate
     * counter perturbation must be caught and reported with a
     * replay seed.
     */
    std::function<void(Machine &)> inject;
};

/** Campaign totals. */
struct FuzzStats
{
    std::uint64_t seedsRun = 0;   //!< seeds that completed clean
    std::uint64_t kernelRuns = 0; //!< kernel x config x variant runs
    std::uint64_t skipped = 0;    //!< input exceeded a config's CAM
    std::uint64_t failures = 0;   //!< mismatches + violations
};

/**
 * The machine configurations every seed is run across: the paper's
 * default plus a small-SSPM/small-cache point and a wide-port point
 * with prefetching, so capacity- and bandwidth-dependent paths all
 * execute.
 */
std::vector<MachineParams> fuzzConfigs();

/**
 * Deterministically generate one adversarial sparse matrix from
 * @p rng: a random structural family, with deliberate empty rows,
 * empty columns, duplicate coordinates (merged by construction) and
 * dense sub-blocks mixed in. Dimensions stay small (<= ~40) so a
 * campaign of hundreds of seeds runs in seconds.
 */
Csr genAdversarial(Rng &rng);

/**
 * Run the campaign (parallel when opts.threads != 1; per-seed
 * verdicts and output are deterministic at any thread count).
 * Returns the totals; failures != 0 means at least one replay line
 * ("replay: via_fuzz seeds=1 seed=... kernel=...", with a trailing
 * " cores=N" when the failing run was multi-core) was printed.
 */
FuzzStats runFuzz(const FuzzOptions &opts);

} // namespace check
} // namespace via

#endif // VIA_CHECK_FUZZ_HH
