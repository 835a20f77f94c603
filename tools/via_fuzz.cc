/**
 * @file
 * via_fuzz — deterministic differential fuzzer for the simulator.
 *
 * Generates adversarial sparse inputs from seeded RNG, runs every
 * kernel (baseline and VIA variants) across several machine
 * configurations, diffs each result against the host golden
 * reference, and verifies the timing model's internal invariants
 * with a TimingInvariantChecker. Every failing seed prints a
 * replayable line, and the campaign exits nonzero:
 *
 *   replay: via_fuzz seeds=1 seed=<S> kernel=<K> [cores=<N>]
 *
 * Usage:
 *   via_fuzz [key=value ...]
 *
 * Keys:
 *   seeds=N    seeds to run                       (default 100)
 *   seed=S     first seed                         (default 1)
 *   kernel=K   all|spmv|spma|spmm|histogram|stencil (default all)
 *   backend=B  base|via|ssr|indexmac (default via): the accelerated
 *              variant run against the host goldens. ssr/indexmac
 *              fuzz the baseline-accelerator kernels on machines
 *              built over the matching VectorBackend; base re-runs
 *              the software kernels in the accelerated slot.
 *   threads=N  parallel seed workers; 0 = hardware (default 1).
 *              Per-seed verdicts and output are identical at any
 *              thread count.
 *   cores=N    with N > 1, each seed also runs the parallel kernel
 *              variants, baseline and backend=, on an N-core
 *              machine (docs/multicore.md);
 *              the partition policy alternates with seed parity
 *              (even = static, odd = steal)
 *   verbose=1  per-seed progress on stderr
 *   inject=1   self-test: perturb a cache counter after each run so
 *              the checker must catch it and print the replay seed
 *
 * See docs/validation.md for the invariant catalog.
 */

#include <cstdio>
#include <string>

#include "check/fuzz.hh"
#include "check/invariants.hh"
#include "cpu/machine.hh"
#include "simcore/options.hh"

using namespace via;

int
main(int argc, char **argv)
{
    Options args("via_fuzz",
                 "Deterministic differential fuzzer: adversarial "
                 "inputs, every kernel, result + invariant checks");
    args.addUInt("seeds", 100, "seeds to run", 1)
        .addUInt("seed", 1, "first seed")
        .addString("kernel", "all",
                   "all|spmv|spma|spmm|histogram|stencil",
                   {"all", "spmv", "spma", "spmm", "histogram",
                    "stencil"})
        .addString("backend", "via",
                   "accelerated variant: base|via|ssr|indexmac",
                   backendNames())
        .addUInt("threads", 1,
                 "parallel seed workers (0 = hardware concurrency)")
        .addUInt("cores", 1,
                 "also fuzz the parallel kernels on an N-core "
                 "machine (1 = single-core only)",
                 1, 32)
        .addFlag("verbose", "per-seed progress on stderr")
        .addFlag("inject",
                 "self-test: corrupt a cache counter after each "
                 "run so the checker must catch it");
    addSelfProfOption(args);
    args.parse(argc, argv);
    applySelfProfOption(args);

    check::FuzzOptions opts;
    opts.seeds = args.getUInt("seeds");
    opts.firstSeed = args.getUInt("seed");
    opts.kernel = args.getString("kernel");
    opts.threads = unsigned(args.getUInt("threads"));
    opts.cores = unsigned(args.getUInt("cores"));
    opts.verbose = args.getBool("verbose");
    opts.backend = parseBackendKind(args.getString("backend"));

    if (args.getBool("inject")) {
        // Deliberately corrupt a cache counter after each kernel
        // run: the invariant checker must flag every run and print
        // a replayable seed (exercised by CTest).
        opts.inject = [](Machine &m) {
            m.memSystem().level(0).stats().reads += 1;
        };
    }

    check::FuzzStats stats = check::runFuzz(opts);
    std::printf("via_fuzz: %llu/%llu seeds, %llu kernel runs "
                "(%llu skipped), %llu failures\n",
                static_cast<unsigned long long>(stats.seedsRun),
                static_cast<unsigned long long>(opts.seeds),
                static_cast<unsigned long long>(stats.kernelRuns),
                static_cast<unsigned long long>(stats.skipped),
                static_cast<unsigned long long>(stats.failures));
    return stats.failures == 0 ? 0 : 1;
}
