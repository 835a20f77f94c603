/**
 * @file
 * Figure 10 — SpMV speedup of the VIA kernels over the software
 * implementations of the same format, bucketed by CSB block density.
 *
 * Paper result: CSB 4.22x average; CSR 1.25x; SPC5 1.24x;
 * Sell-C-sigma 1.31x. Matrices are sorted by non-zeros per CSB block
 * and split evenly into four categories; the x-axis label is the
 * median nnz/block of each category.
 *
 * Matrices are independent simulation points: each runs on its own
 * worker thread (threads=N, default hardware concurrency) with a
 * per-matrix RNG seed, and rows print in submission order, so the
 * output is bit-identical at any thread count.
 *
 * Usage: fig10_spmv [count=N] [seed=S] [max_rows=R] [sspm_kb=K]
 *                   [ports=P] [corpus_dir=PATH] [threads=T]
 *                   [mode=detailed|sampled] [sample_interval=N]
 *                   [sample_warmup=N] [sample_measure=N]
 *                   [trace=PATH] [trace_format=perfetto|konata]
 *                   [trace_limit=N] [trace_summary=1]
 *                   [cores=N] [partition=static|steal] [llc_banks=B]
 *
 * With cores>1 the CSR and CSB columns compare the parallel kernel
 * variants of the backend= machine on the multi-core machine
 * (docs/multicore.md). The SPC5 and Sell-C-sigma columns keep their
 * single-core numbers by choice, which keeps the harness's pinned
 * output; both formats have parallel kernels too. cores>1 requires
 * mode=detailed. cores=1 (the default) is the unchanged,
 * bit-identical single-core path.
 *
 * mode=sampled replaces every kernel's detailed cycle count with
 * the interval-sampling extrapolation (docs/sampling.md), making
 * corpora with far larger matrices (max_rows in the hundreds of
 * thousands) tractable at a bounded cycle error.
 *
 * backend= picks the accelerated column's kernels through the
 * format dispatch (kernels/dispatch.hh): VIA by default, or the SSR
 * or IndexMAC variants; backend=base compares software with itself
 * (every speedup 1.0 by construction).
 *
 * With trace=PATH, the accelerated CSB run of every matrix writes
 * its own event trace, suffixed with the matrix name before the
 * extension (e.g. trace=fig10.json -> fig10_uniform_03.json).
 */

#include <array>
#include <cstdio>
#include <vector>

#include "common.hh"
#include "cpu/machine.hh"
#include "cpu/machine_config.hh"
#include "cpu/multi_machine.hh"
#include "kernels/dispatch.hh"
#include "kernels/parallel.hh"
#include "kernels/spmv.hh"
#include "simcore/rng.hh"
#include "sparse/corpus.hh"

using namespace via;

namespace
{

struct PerMatrix
{
    double nnzPerBlock = 0.0;
    /** Accelerated speedup over software for CSR, SPC5, Sell-C-sigma
     *  and CSB, then CSB over the scalar CSB reference. */
    std::array<double, 5> speedup{};
    std::string line; //!< per-matrix report, printed in order
};

} // namespace

int
main(int argc, char **argv)
{
    Options opts = bench::benchOptions(
        "fig10_spmv",
        "Figure 10: SpMV speedup of VIA over software formats");
    addMachineOptions(opts);
    addMultiCoreOptions(opts);
    sample::addSampleOptions(opts);
    addTraceOptions(opts);
    const CorpusSpec corpus_dflt{.count = 24, .maxRows = 4096};
    bench::addCorpusOptions(opts, corpus_dflt,
                            "generated corpus matrices");
    opts.addString("corpus_dir", "",
                   "load MatrixMarket corpus from this directory "
                   "instead of generating one")
        .addUInt("vec_seed", 1234, "dense-vector seed");
    opts.parse(argc, argv);
    applySelfProfOption(opts);
    MachineParams params = machineParamsFrom(opts);
    sample::SampleOptions sopts = bench::sampleOptions(opts);
    auto cores = unsigned(opts.getUInt("cores"));
    if (cores > 1 && sopts.mode != sample::SimMode::Detailed)
        opts.usageError("cores>1 supports mode=detailed only");
    auto part = kernels::parsePartition(opts.getString("partition"));
    SharedLlcParams llcp = sharedLlcParamsFrom(opts, params, cores);
    TraceOptions topts = bench::traceOptions(opts);

    std::vector<CorpusEntry> corpus =
        opts.given("corpus_dir")
            ? loadCorpusDir(opts.getString("corpus_dir"))
            : buildCorpus(bench::corpusSpec(opts, corpus_dflt));

    SweepExecutor exec = bench::makeExecutor(opts);
    std::uint64_t vec_seed = opts.getUInt("vec_seed");

    auto results = exec.run(corpus.size(), [&](std::size_t i) {
        const auto &entry = corpus[i];
        const Csr &a = entry.matrix;
        Rng rng(SweepExecutor::pointSeed(vec_seed, i));
        DenseVector x = randomVector(a.cols(), rng);
        PerMatrix pm;

        // Each kernel runs on a fresh machine. Under mode=sampled the
        // estimate replaces the detailed makespan; in detailed mode
        // runWith returns it exactly.
        auto cycles = [&](auto &&kernel) {
            Machine m(params);
            return sample::runWith(m, sopts, [&] { kernel(m); })
                .cycles;
        };
        auto software = [&](const std::string &fmt) {
            return cycles([&](Machine &m) {
                kernels::spmvBaseline(m, a, x, fmt);
            });
        };
        auto accel = [&](const std::string &fmt) {
            return cycles(
                [&](Machine &m) { kernels::spmvAccel(m, a, x, fmt); });
        };

        // cores>1: the CSR and CSB columns compare the parallel
        // kernel variants on the multi-core machine; each run gets a
        // fresh machine set, and the makespan is the slowest core.
        auto run_par = [&](const std::string &fmt, bool accel) {
            MultiMachine mm(params, cores, llcp);
            return double(kernels::spmvParallel(mm, a, x, fmt, part,
                                                accel)
                              .cycles);
        };

        Csb csb = [&] {
            Machine probe(params);
            return Csb::fromCsr(a, kernels::viaCsbBeta(probe));
        }();
        pm.nnzPerBlock = csb.meanNnzPerNonEmptyBlock();
        pm.speedup[0] = cores == 1 ? software("csr") / accel("csr")
                                   : run_par("csr", false) /
                                         run_par("csr", true);
        pm.speedup[1] = software("spc5") / accel("spc5");
        pm.speedup[2] = software("sell") / accel("sell");
        // The headline kernel (the backend's CSB) is the traced one.
        double accel_csb = [&] {
            Machine m(params);
            enableTracing(m, topts);
            m.tracePhase("spmv_csb");
            auto est = sample::runWith(m, sopts, [&] {
                kernels::spmvAccel(m, a, x, "csb");
            });
            finishTracing(m, topts, "_" + entry.name);
            return est.cycles;
        }();
        pm.speedup[3] = cores == 1 ? software("csb") / accel_csb
                                   : run_par("csb", false) /
                                         run_par("csb", true);
        // The vs-scalar reference column stays single-core: there is
        // no parallel scalar-CSB kernel to compare against.
        pm.speedup[4] = cycles([&](Machine &m) {
                            kernels::spmvScalarCsb(m, csb, x);
                        }) /
                        accel_csb;

        char buf[160];
        std::snprintf(buf, sizeof(buf),
                      "  %-28s nnz/blk %8.1f  csr %5.2fx  spc5 "
                      "%5.2fx  sell %5.2fx  csb %5.2fx (%5.2fx vs "
                      "scalar)",
                      entry.name.c_str(), pm.nnzPerBlock,
                      pm.speedup[0], pm.speedup[1], pm.speedup[2],
                      pm.speedup[3], pm.speedup[4]);
        pm.line = buf;
        return pm;
    });

    // Bucket by block density as the paper does.
    std::vector<double> keys;
    std::vector<std::vector<double>> columns(5);
    for (const PerMatrix &pm : results) {
        std::printf("%s\n", pm.line.c_str());
        keys.push_back(pm.nnzPerBlock);
        for (std::size_t c = 0; c < columns.size(); ++c)
            columns[c].push_back(pm.speedup[c]);
    }

    std::printf("\n== Figure 10: VIA-SpMV speedup over software, by "
                "CSB block density ==\n");
    auto rows = bench::categoryRows("nnz/blk", keys, columns);
    rows.push_back({"paper avg", "1.25", "1.24", "1.31", "4.22",
                    "-"});
    bench::printTable({"category", "CSR", "SPC5", "Sell-C-s",
                       "CSB/vec", "CSB/scalar"},
                      rows);
    return 0;
}
