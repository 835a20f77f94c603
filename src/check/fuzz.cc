#include "check/fuzz.hh"

#include <algorithm>
#include <cstdarg>
#include <cstdio>

#include "check/invariants.hh"
#include "cpu/machine.hh"
#include "cpu/multi_machine.hh"
#include "kernels/dispatch.hh"
#include "kernels/histogram.hh"
#include "kernels/parallel.hh"
#include "kernels/reference.hh"
#include "kernels/spma.hh"
#include "kernels/spmm.hh"
#include "kernels/stencil.hh"
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
            bool multicore = false)
{
    appendf(ctx.out, "replay: via_fuzz seeds=1 seed=%llu kernel=%s",
            static_cast<unsigned long long>(ctx.seed),
            kernel.c_str());
    // Single-core replay lines stay byte-identical to the
    // pre-multicore fuzzer; only a multi-core failure needs the
    // extra knob to reproduce, and only another backend than the
    // default needs backend=.
    if (multicore)
        appendf(ctx.out, " cores=%u", ctx.opts.cores);
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

/**
 * The accelerated slot's variant= tag. With the default backend the
 * campaign output stays byte-identical to the pre-backend fuzzer
 * ("variant=via").
 */
std::string
accelTag(const MachineParams &params)
{
    return "variant=" +
           std::string(backendName(params.backend.kind));
}

/** A parallel run's variant= tag: the backend's, or @p baseline. */
std::string
multiTag(const MachineParams &params, bool accel, const char *baseline)
{
    return accel ? accelTag(params) : std::string("variant=") + baseline;
}

/**
 * Run one kernel variant on a fresh machine with an invariant
 * checker attached; @p body executes the kernel and returns whether
 * the result matched the golden reference.
 *
 * @return false when the campaign must stop (failure recorded)
 */
bool
runOne(const SeedCtx &ctx, const MachineParams &params,
       const std::string &kernel, const std::string &label,
       const std::function<bool(Machine &)> &body)
{
    Machine m(params);
    TimingInvariantChecker &checker = m.attachChecker();
    bool ref_ok = body(m);
    if (ctx.opts.inject)
        ctx.opts.inject(m);
    bool inv_ok = checker.checkAll();
    ++ctx.stats.kernelRuns;
    if (ref_ok && inv_ok)
        return true;

    ++ctx.stats.failures;
    appendf(ctx.out,
            "via_fuzz: FAIL %s config=%s seed=%llu (%s)\n",
            label.c_str(), params.via.name().c_str(),
            static_cast<unsigned long long>(ctx.seed),
            !ref_ok ? "reference mismatch"
                    : "invariant violation");
    if (!inv_ok)
        ctx.out += checker.report();
    printReplay(ctx, kernel);
    return false;
}

/**
 * Multi-core counterpart of runOne: a fresh opts.cores-core
 * MultiMachine with an invariant checker attached to every core;
 * @p body runs the parallel kernel and returns whether the result
 * matched the golden. The inject hook hits core 0, so the self-test
 * covers the multi-core checkers too.
 */
bool
runOneMulti(const SeedCtx &ctx, const MachineParams &params,
            const std::string &kernel, const std::string &label,
            const std::function<bool(MultiMachine &)> &body)
{
    MultiMachine mm(params, ctx.opts.cores);
    mm.attachCheckers();
    bool ref_ok = body(mm);
    if (ctx.opts.inject)
        ctx.opts.inject(mm.core(0));
    bool inv_ok = true;
    unsigned bad_core = 0;
    for (unsigned c = 0; c < mm.cores() && inv_ok; ++c) {
        if (!mm.core(c).checker()->checkAll()) {
            inv_ok = false;
            bad_core = c;
        }
    }
    ++ctx.stats.kernelRuns;
    if (ref_ok && inv_ok)
        return true;

    ++ctx.stats.failures;
    appendf(ctx.out,
            "via_fuzz: FAIL %s cores=%u partition=%s config=%s "
            "seed=%llu (%s)\n",
            label.c_str(), ctx.opts.cores,
            kernels::partitionName(seedPartition(ctx.seed)),
            params.via.name().c_str(),
            static_cast<unsigned long long>(ctx.seed),
            !ref_ok ? "reference mismatch" : "invariant violation");
    if (!inv_ok) {
        appendf(ctx.out, "core %u:\n", bad_core);
        ctx.out += mm.core(bad_core).checker()->report();
    }
    printReplay(ctx, kernel, true);
    return false;
}

bool
fuzzSpmv(const SeedCtx &ctx, const MachineParams &params, Rng &rng)
{
    Csr a = genAdversarial(rng);
    DenseVector x = randomVector(a.cols(), rng);
    DenseVector golden = a.multiply(x);
    for (const std::string &fmt : kernels::spmvFormats()) {
        auto diff = [&](kernels::SpmvResult res) {
            return allClose(res.y, golden);
        };
        if (!runOne(ctx, params, "spmv",
                    "kernel=spmv format=" + fmt + " variant=base",
                    [&](Machine &m) {
                        return diff(kernels::spmvBaseline(m, a, x,
                                                          fmt));
                    }))
            return false;
        if (!runOne(ctx, params, "spmv",
                    "kernel=spmv format=" + fmt + " " +
                        accelTag(params),
                    [&](Machine &m) {
                        return diff(
                            kernels::spmvAccel(m, a, x, fmt));
                    }))
            return false;
    }
    if (ctx.opts.cores > 1) {
        kernels::Partition part = seedPartition(ctx.seed);
        for (const std::string &fmt : kernels::spmvFormats()) {
            for (bool accel : {false, true}) {
                if (!runOneMulti(
                        ctx, params, "spmv",
                        "kernel=spmv format=" + fmt + " " +
                            multiTag(params, accel, "base"),
                        [&](MultiMachine &mm) {
                            return allClose(
                                kernels::spmvParallel(mm, a, x, fmt,
                                                      part, accel)
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
    auto diff = [&](const kernels::SpmaResult &res) {
        return closeElements(res.c, golden, 1e-3);
    };
    if (!runOne(ctx, params, "spma",
                "kernel=spma variant=scalar", [&](Machine &m) {
                    return diff(kernels::spmaScalarCsr(m, a, b));
                }))
        return false;
    if (!runOne(ctx, params, "spma",
                "kernel=spma " + accelTag(params),
                [&](Machine &m) {
                    return diff(kernels::spmaAccel(m, a, b));
                }))
        return false;
    if (ctx.opts.cores > 1) {
        kernels::Partition part = seedPartition(ctx.seed);
        for (bool accel : {false, true}) {
            if (!runOneMulti(ctx, params, "spma",
                             "kernel=spma " +
                                 multiTag(params, accel, "scalar"),
                             [&](MultiMachine &mm) {
                                 return diff(kernels::spmaParallel(
                                     mm, a, b, part, accel));
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
    auto diff = [&](const kernels::SpmmResult &res) {
        return closeElements(res.c, golden, 1e-2);
    };
    if (!runOne(ctx, params, "spmm",
                "kernel=spmm variant=scalar", [&](Machine &m) {
                    return diff(kernels::spmmScalarInner(m, a, b));
                }))
        return false;
    // The VIA kernel loads whole A rows into the CAM; rows longer
    // than the table cannot run on this configuration. The other
    // backends have no such capacity cliff.
    bool via_fits =
        params.backend.kind != BackendKind::Via ||
        a.maxRowNnz() <= Index(params.via.camEntries());
    if (!via_fits)
        ++ctx.stats.skipped;
    else if (!runOne(ctx, params, "spmm",
                     "kernel=spmm " + accelTag(params),
                     [&](Machine &m) {
                         return diff(kernels::spmmAccel(m, a, b));
                     }))
        return false;
    if (ctx.opts.cores > 1) {
        kernels::Partition part = seedPartition(ctx.seed);
        for (bool accel : {false, true}) {
            if (accel && !via_fits) {
                ++ctx.stats.skipped;
                continue;
            }
            if (!runOneMulti(ctx, params, "spmm",
                             "kernel=spmm " +
                                 multiTag(params, accel, "scalar"),
                             [&](MultiMachine &mm) {
                                 return diff(kernels::spmmParallel(
                                     mm, a, b, part, accel));
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
    auto diff = [&](const kernels::HistResult &res) {
        return res.hist == golden;
    };
    if (!runOne(ctx, params, "histogram",
                "kernel=histogram variant=scalar",
                [&](Machine &m) {
                    return diff(
                        kernels::histScalar(m, keys, buckets));
                }))
        return false;
    if (!runOne(ctx, params, "histogram",
                "kernel=histogram variant=vector",
                [&](Machine &m) {
                    return diff(
                        kernels::histVector(m, keys, buckets));
                }))
        return false;
    if (!runOne(ctx, params, "histogram",
                "kernel=histogram " + accelTag(params),
                [&](Machine &m) {
                    return diff(
                        kernels::histAccel(m, keys, buckets));
                }))
        return false;
    if (ctx.opts.cores > 1) {
        kernels::Partition part = seedPartition(ctx.seed);
        for (bool accel : {false, true}) {
            if (!runOneMulti(
                    ctx, params, "histogram",
                    "kernel=histogram " +
                        multiTag(params, accel, "vector"),
                    [&](MultiMachine &mm) {
                        return diff(kernels::histParallel(
                            mm, keys, buckets, part, accel));
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
    auto diff = [&](const kernels::StencilResult &res) {
        return allClose(res.out.data(), golden.data());
    };
    if (!runOne(ctx, params, "stencil",
                "kernel=stencil variant=vector", [&](Machine &m) {
                    return diff(kernels::stencilVector(m, img));
                }))
        return false;
    if (!runOne(ctx, params, "stencil",
                "kernel=stencil " + accelTag(params),
                [&](Machine &m) {
                    return diff(kernels::stencilAccel(m, img));
                }))
        return false;
    if (ctx.opts.cores > 1) {
        kernels::Partition part = seedPartition(ctx.seed);
        for (bool accel : {false, true}) {
            if (!runOneMulti(
                    ctx, params, "stencil",
                    "kernel=stencil " +
                        multiTag(params, accel, "vector"),
                    [&](MultiMachine &mm) {
                        return diff(kernels::stencilParallel(
                            mm, img, part, accel));
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
