#include "check/fuzz.hh"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <string_view>

#include "check/invariants.hh"
#include "cpu/multi_machine.hh"
#include "kernels/dispatch.hh"
#include "kernels/histogram.hh"
#include "kernels/parallel.hh"
#include "kernels/reference.hh"
#include "simcore/log.hh"
#include "simcore/parallel.hh"
#include "sparse/convert.hh"
#include "sparse/csc.hh"
#include "sparse/generators.hh"

namespace via
{
namespace check
{

namespace
{

/**
 * Per-seed context threaded through every kernel run. Diagnostics
 * go through `out`, not straight to stderr: seeds may run on worker
 * threads, and buffering keeps a parallel campaign's output
 * bit-identical to a serial one.
 */
struct SeedCtx
{
    const FuzzOptions &opts;
    FuzzStats &stats;
    std::uint64_t seed;
    std::string &out;
};

[[gnu::format(printf, 2, 3)]] void
appendf(std::string &out, const char *fmt, ...)
{
    char buf[512];
    std::va_list args;
    va_start(args, fmt);
    int n = std::vsnprintf(buf, sizeof(buf), fmt, args);
    va_end(args);
    if (n > 0)
        out.append(buf, std::min(std::size_t(n), sizeof(buf) - 1));
}

void
printReplay(const SeedCtx &ctx, const std::string &kernel,
            unsigned cores)
{
    appendf(ctx.out, "replay: via_fuzz seeds=1 seed=%llu kernel=%s",
            static_cast<unsigned long long>(ctx.seed),
            kernel.c_str());
    // Single-core replay lines stay byte-identical to the
    // pre-multicore fuzzer; only a multi-core failure needs the
    // extra knob to reproduce, and only another backend than the
    // default needs backend=.
    if (cores > 1)
        appendf(ctx.out, " cores=%u", cores);
    if (ctx.opts.backend != BackendKind::Via)
        ctx.out += " backend=" + std::string(backendName(ctx.opts.backend));
    appendf(ctx.out, "\n");
}

/** The seed's partitioning policy (even = static, odd = steal). */
kernels::Partition
seedPartition(std::uint64_t seed)
{
    return (seed & 1) ? kernels::Partition::Steal
                      : kernels::Partition::Static;
}

/** The core counts every kernel runs at: one, then opts.cores. */
std::vector<unsigned>
coreCounts(const FuzzOptions &opts)
{
    if (opts.cores > 1)
        return {1, opts.cores};
    return {1};
}

/**
 * A run's variant= tag: the backend's name for the accelerated
 * kernel (so the default backend's stays "variant=via", as before
 * the backends), or @p baseline for the software baseline.
 */
std::string
variantTag(const MachineParams &params, bool accel, const char *baseline)
{
    return "variant=" +
           std::string(accel ? backendName(params.backend.kind)
                             : std::string_view(baseline));
}

/**
 * Run one kernel variant on a fresh machine of @p cores cores with
 * an invariant checker attached to every core; @p body executes the
 * kernel and returns whether the result matched the golden
 * reference. The inject hook hits core 0, so the self-test covers
 * every core count.
 *
 * @return false when the campaign must stop (failure recorded)
 */
bool
runOne(const SeedCtx &ctx, const MachineParams &params, unsigned cores,
       const std::string &kernel, const std::string &label,
       const std::function<bool(MultiMachine &)> &body)
{
    MultiMachine mm(params, cores);
    mm.attachCheckers();
    bool ref_ok = body(mm);
    if (ctx.opts.inject)
        ctx.opts.inject(mm.core(0));
    bool inv_ok = true;
    unsigned bad_core = 0;
    for (unsigned c = 0; c < cores && inv_ok; ++c) {
        if (!mm.core(c).checker()->checkAll()) {
            inv_ok = false;
            bad_core = c;
        }
    }
    ++ctx.stats.kernelRuns;
    if (ref_ok && inv_ok)
        return true;

    ++ctx.stats.failures;
    std::string where;
    if (cores > 1)
        where = " cores=" + std::to_string(cores) + " partition=" +
                kernels::partitionName(seedPartition(ctx.seed));
    appendf(ctx.out, "via_fuzz: FAIL %s%s config=%s seed=%llu (%s)\n",
            label.c_str(), where.c_str(), params.via.name().c_str(),
            static_cast<unsigned long long>(ctx.seed),
            !ref_ok ? "reference mismatch" : "invariant violation");
    if (!inv_ok) {
        if (cores > 1)
            appendf(ctx.out, "core %u:\n", bad_core);
        ctx.out += mm.core(bad_core).checker()->report();
    }
    printReplay(ctx, kernel, cores);
    return false;
}

bool
fuzzSpmv(const SeedCtx &ctx, const MachineParams &params, Rng &rng)
{
    Csr a = genAdversarial(rng);
    DenseVector x = randomVector(a.cols(), rng);
    DenseVector golden = a.multiply(x);
    kernels::Partition part = seedPartition(ctx.seed);
    for (unsigned cores : coreCounts(ctx.opts)) {
        for (const std::string &fmt : kernels::spmvFormats()) {
            for (bool accel : {false, true}) {
                if (!runOne(ctx, params, cores, "spmv",
                            "kernel=spmv format=" + fmt + " " +
                                variantTag(params, accel, "base"),
                            [&](MultiMachine &mm) {
                                return allClose(
                                    kernels::spmvParallel(
                                        mm, a, x, fmt, part, accel)
                                        .y,
                                    golden);
                            }))
                    return false;
            }
        }
    }
    return true;
}

bool
fuzzSpma(const SeedCtx &ctx, const MachineParams &params, Rng &rng)
{
    Csr a = genAdversarial(rng);
    // Addition needs conformal shapes: B reuses A's dimensions with
    // an independent structure.
    Csr b = genUniform(a.rows(), a.cols(),
                       std::min(1.0, 0.05 + rng.uniform() * 0.3),
                       rng);
    Csr golden = addCsr(a, b);
    kernels::Partition part = seedPartition(ctx.seed);
    for (unsigned cores : coreCounts(ctx.opts)) {
        for (bool accel : {false, true}) {
            if (!runOne(ctx, params, cores, "spma",
                        "kernel=spma " +
                            variantTag(params, accel, "scalar"),
                        [&](MultiMachine &mm) {
                            return closeElements(
                                kernels::spmaParallel(mm, a, b, part,
                                                      accel)
                                    .c,
                                golden, 1e-3);
                        }))
                return false;
        }
    }
    return true;
}

bool
fuzzSpmm(const SeedCtx &ctx, const MachineParams &params, Rng &rng)
{
    Csr a = genAdversarial(rng);
    Csr b_csr = genUniform(a.cols(), std::max<Index>(1, a.rows()),
                           std::min(1.0,
                                    0.05 + rng.uniform() * 0.25),
                           rng);
    Csc b = Csc::fromCsr(b_csr);
    Csr golden = mulCsr(a, b_csr);
    // The VIA kernel loads whole A rows into the CAM; rows longer
    // than the table cannot run on this configuration. The other
    // backends have no such capacity cliff.
    bool via_fits =
        params.backend.kind != BackendKind::Via ||
        a.maxRowNnz() <= Index(params.via.camEntries());
    kernels::Partition part = seedPartition(ctx.seed);
    for (unsigned cores : coreCounts(ctx.opts)) {
        for (bool accel : {false, true}) {
            if (accel && !via_fits) {
                ++ctx.stats.skipped;
                continue;
            }
            if (!runOne(ctx, params, cores, "spmm",
                        "kernel=spmm " +
                            variantTag(params, accel, "scalar"),
                        [&](MultiMachine &mm) {
                            return closeElements(
                                kernels::spmmParallel(mm, a, b, part,
                                                      accel)
                                    .c,
                                golden, 1e-2);
                        }))
                return false;
        }
    }
    return true;
}

bool
fuzzHistogram(const SeedCtx &ctx, const MachineParams &params,
              Rng &rng)
{
    auto buckets = Index(1 + rng.below(512));
    auto count = std::size_t(rng.below(513));
    std::vector<Index> keys(count);
    bool skewed = rng.chance(0.5);
    Index hot = Index(rng.below(std::uint64_t(buckets)));
    for (auto &k : keys)
        k = (skewed && rng.chance(0.8))
                ? hot
                : Index(rng.below(std::uint64_t(buckets)));
    std::vector<Value> golden = kernels::refHistogram(keys, buckets);
    // The scalar kernel has no parallel form: it runs on one core.
    if (!runOne(ctx, params, 1, "histogram",
                "kernel=histogram variant=scalar",
                [&](MultiMachine &mm) {
                    return kernels::histScalar(mm.core(0), keys,
                                               buckets)
                               .hist == golden;
                }))
        return false;
    kernels::Partition part = seedPartition(ctx.seed);
    for (unsigned cores : coreCounts(ctx.opts)) {
        for (bool accel : {false, true}) {
            if (!runOne(ctx, params, cores, "histogram",
                        "kernel=histogram " +
                            variantTag(params, accel, "vector"),
                        [&](MultiMachine &mm) {
                            return kernels::histParallel(
                                       mm, keys, buckets, part, accel)
                                       .hist == golden;
                        }))
                return false;
        }
    }
    return true;
}

bool
fuzzStencil(const SeedCtx &ctx, const MachineParams &params,
            Rng &rng)
{
    // The 4x4 valid convolution needs at least a 4x4 image; odd,
    // non-multiple-of-VL sides exercise the edge handling.
    auto side = Index(4 + rng.below(21));
    DenseMatrix img(side, side);
    for (auto &p : img.data())
        p = Value(rng.uniform() * 255.0);
    DenseMatrix golden = kernels::refConvolve4x4(img);
    kernels::Partition part = seedPartition(ctx.seed);
    for (unsigned cores : coreCounts(ctx.opts)) {
        for (bool accel : {false, true}) {
            if (!runOne(ctx, params, cores, "stencil",
                        "kernel=stencil " +
                            variantTag(params, accel, "vector"),
                        [&](MultiMachine &mm) {
                            return allClose(
                                kernels::stencilParallel(mm, img, part,
                                                         accel)
                                    .out.data(),
                                golden.data());
                        }))
                return false;
        }
    }
    return true;
}

/** One seed's complete, order-independent verdict. */
struct SeedResult
{
    FuzzStats stats;
    std::string out;
};

/**
 * Run one seed across every configuration and requested kernel,
 * stopping at the seed's first failure (one replay line per bad
 * seed). Self-contained: writes only into the returned result, so
 * seeds can run on any thread in any order.
 */
SeedResult
runSeed(const FuzzOptions &opts,
        const std::vector<MachineParams> &configs,
        std::uint64_t seed)
{
    SeedResult res;
    SeedCtx ctx{opts, res.stats, seed, res.out};
    if (opts.verbose)
        appendf(res.out, "via_fuzz: seed %llu\n",
                static_cast<unsigned long long>(seed));
    for (const MachineParams &params : configs) {
        // Each kernel draws from its own stream so adding a kernel
        // or config never shifts another's inputs.
        auto sub = [&](std::uint64_t salt) {
            return Rng(seed * 0x9e3779b97f4a7c15ull + salt);
        };
        bool ok = true;
        if (opts.kernel == "all" || opts.kernel == "spmv") {
            Rng r = sub(1);
            ok = fuzzSpmv(ctx, params, r);
        }
        if (ok && (opts.kernel == "all" || opts.kernel == "spma")) {
            Rng r = sub(2);
            ok = fuzzSpma(ctx, params, r);
        }
        if (ok && (opts.kernel == "all" || opts.kernel == "spmm")) {
            Rng r = sub(3);
            ok = fuzzSpmm(ctx, params, r);
        }
        if (ok &&
            (opts.kernel == "all" || opts.kernel == "histogram")) {
            Rng r = sub(4);
            ok = fuzzHistogram(ctx, params, r);
        }
        if (ok &&
            (opts.kernel == "all" || opts.kernel == "stencil")) {
            Rng r = sub(5);
            ok = fuzzStencil(ctx, params, r);
        }
        if (!ok)
            return res;
    }
    ++res.stats.seedsRun;
    return res;
}

} // namespace

std::vector<MachineParams>
fuzzConfigs()
{
    std::vector<MachineParams> configs;

    // The paper's default machine (16 KB SSPM, 2 ports).
    configs.push_back(MachineParams{});

    // Capacity-starved: small SSPM/CAM, small L1, few MSHRs —
    // forces CAM tiling, SSPM chunking and MSHR back-pressure.
    MachineParams small;
    small.via = ViaConfig::make(4, 2);
    small.mem.levels[0].sizeBytes = 8 * 1024;
    small.mem.levels[0].mshrs = 4;
    configs.push_back(small);

    // Bandwidth-rich: wide SSPM ports plus next-line prefetching,
    // exercising the prefetch writeback path and port pipelining.
    MachineParams wide;
    wide.via = ViaConfig::make(16, 4);
    wide.mem.prefetch.degree = 2;
    configs.push_back(wide);

    return configs;
}

Csr
genAdversarial(Rng &rng)
{
    auto n = Index(2 + rng.below(39));
    Csr base;
    switch (rng.below(6)) {
    case 0:
        base = genUniform(n, n, 0.02 + rng.uniform() * 0.3, rng);
        break;
    case 1:
        base = genBandedCsr(n,
                            Index(1 + rng.below(std::uint64_t(
                                      std::max<Index>(1, n / 4)))),
                            0.2 + rng.uniform() * 0.8, rng);
        break;
    case 2: {
        Index n2 = 2;
        while (2 * n2 <= n)
            n2 *= 2;
        base = genRmatCsr(n2,
                          1 + rng.below(std::uint64_t(n2) *
                                        std::uint64_t(n2) / 2),
                          rng);
        break;
    }
    case 3:
        base = genBlocked(
            n,
            Index(1 + rng.below(std::min<std::uint64_t>(n, 8))),
            0.2 + rng.uniform() * 0.6, 0.3 + rng.uniform() * 0.7,
            rng);
        break;
    case 4:
        base = genDiagHeavy(n, rng.uniform() * 4.0, rng);
        break;
    default:
        // Extremes: fully dense, or entirely empty (structural
        // zero matrix — every row and column is empty).
        if (rng.chance(0.5))
            base = genUniform(n, n, 1.0, rng);
        else
            base = Csr::fromCoo(Coo(n, n));
        break;
    }

    Coo coo = base.toCoo();
    // The family may have rounded the size (RMAT is a power of
    // two); adversarial structure goes by the actual dimensions.
    n = coo.rows();

    // Duplicate coordinates: re-add existing elements so fromCoo's
    // merge path runs (the COO->CSR dedup rare-structure case).
    if (!coo.elems().empty() && rng.chance(0.5)) {
        std::size_t dups = 1 + rng.below(4);
        for (std::size_t d = 0; d < dups; ++d) {
            const Triplet &t =
                coo.elems()[rng.below(coo.elems().size())];
            coo.add(t.row, t.col, Value(rng.uniform() - 0.5));
        }
    }

    // A small dense block somewhere: nnz/row skew inside an
    // otherwise sparse structure.
    if (rng.chance(0.4)) {
        auto side = Index(
            std::min<std::uint64_t>(n, 2 + rng.below(5)));
        auto r0 = Index(rng.below(std::uint64_t(n - side + 1)));
        auto c0 = Index(rng.below(std::uint64_t(n - side + 1)));
        for (Index r = 0; r < side; ++r)
            for (Index c = 0; c < side; ++c)
                coo.add(r0 + r, c0 + c,
                        Value(rng.uniform() - 0.5));
    }

    // Empty rows and columns: knock out everything in a random row
    // band and a random column band.
    if (rng.chance(0.6)) {
        auto r_lo = Index(rng.below(n));
        auto r_hi = Index(
            std::min<std::uint64_t>(n, r_lo + 1 + rng.below(4)));
        auto c_lo = Index(rng.below(n));
        auto c_hi = Index(
            std::min<std::uint64_t>(n, c_lo + 1 + rng.below(4)));
        auto &elems = coo.elems();
        elems.erase(
            std::remove_if(elems.begin(), elems.end(),
                           [&](const Triplet &t) {
                               return (t.row >= r_lo &&
                                       t.row < r_hi) ||
                                      (t.col >= c_lo &&
                                       t.col < c_hi);
                           }),
            elems.end());
    }

    return Csr::fromCoo(std::move(coo));
}

FuzzStats
runFuzz(const FuzzOptions &opts)
{
    std::vector<MachineParams> configs = fuzzConfigs();
    for (MachineParams &params : configs)
        params.backend.kind = opts.backend;

    SweepExecutor exec(opts.threads);
    std::vector<SeedResult> results =
        exec.run(std::size_t(opts.seeds), [&](std::size_t i) {
            return runSeed(opts, configs, opts.firstSeed + i);
        });

    // Emit and aggregate in seed order, regardless of which thread
    // finished first.
    FuzzStats stats;
    for (const SeedResult &res : results) {
        if (!res.out.empty())
            std::fputs(res.out.c_str(), stderr);
        stats.seedsRun += res.stats.seedsRun;
        stats.kernelRuns += res.stats.kernelRuns;
        stats.skipped += res.stats.skipped;
        stats.failures += res.stats.failures;
    }
    return stats;
}

} // namespace check
} // namespace via
