/**
 * @file
 * Section VII-A energy/bandwidth claims for CSB SpMV:
 *   - total energy (leakage + dynamic) reduced 3.8x,
 *   - achieved memory bandwidth increased 2.5x.
 *
 * Compares the software CSB kernel against VIA-CSB on the corpus
 * and reports energy breakdown ratios and DRAM bytes/cycle.
 *
 * backend= picks the accelerated CSB kernel (kernels/dispatch.hh):
 * VIA by default, or the SSR or IndexMAC variant.
 *
 * Matrices run as independent points on a SweepExecutor
 * (threads=N); output is bit-identical at any thread count.
 *
 * Usage: energy_bw [count=N] [seed=S] [max_rows=R] [threads=T]
 *                  [backend=base|via|ssr|indexmac]
 */

#include <cstdio>
#include <vector>

#include "common.hh"
#include "cpu/machine.hh"
#include "cpu/machine_config.hh"
#include "kernels/parallel.hh"
#include "kernels/runner.hh"
#include "simcore/rng.hh"
#include "sparse/corpus.hh"

using namespace via;

int
main(int argc, char **argv)
{
    Options opts = bench::benchOptions(
        "energy_bw",
        "Processor energy and DRAM traffic: VIA vs vectorized CSB");
    addMachineOptions(opts);
    // The paper reports these numbers for the *best usage case*
    // (Section VII-A), so the corpus leans on the larger, denser
    // matrices where CSB blocks actually fill.
    const CorpusSpec corpus_dflt{.count = 10,
                                 .minRows = 1024,
                                 .maxRows = 4096,
                                 .minDensity = 0.004};
    bench::addCorpusOptions(opts, corpus_dflt);
    opts.parse(argc, argv);
    applySelfProfOption(opts);
    MachineParams params = machineParamsFrom(opts);
    auto corpus = buildCorpus(bench::corpusSpec(opts, corpus_dflt));
    SweepExecutor exec = bench::makeExecutor(opts);

    // The x vectors come from one stream in corpus order, drawn
    // before the sweep, so every point sees the same input at any
    // thread count.
    Rng rng(55);
    std::vector<DenseVector> xs;
    for (const auto &entry : corpus)
        xs.push_back(randomVector(entry.matrix.cols(), rng));

    struct PerMatrix
    {
        double energy = 0.0;
        double bandwidth = 0.0; //!< 0 when either side has no traffic
        double withDram = 0.0;
    };
    auto results = exec.run(corpus.size(), [&](std::size_t i) {
        const Csr &a = corpus[i].matrix;

        Machine m1(params);
        kernels::spmvRun(m1, BackendKind::Base, a, "csb", xs[i]);
        auto base = kernels::collectMetrics(m1);

        Machine m2(params);
        kernels::spmvRun(m2, m2.backendKind(), a, "csb", xs[i]);
        auto accel = kernels::collectMetrics(m2);

        // The paper's 3.8x is McPAT scope: processor energy
        // (leakage + dynamic), not DRAM device energy — both
        // machines stream the same matrix bytes, so including DRAM
        // would cap the ratio regardless of the architecture.
        double base_cpu = base.energy.totalPj() -
                          base.energy.dramPj;
        double accel_cpu = accel.energy.totalPj() -
                           accel.energy.dramPj;
        PerMatrix pt;
        pt.energy = std::max(base_cpu / accel_cpu, 1e-9);
        if (accel.dramBytesPerCycle > 0 &&
            base.dramBytesPerCycle > 0)
            pt.bandwidth = accel.dramBytesPerCycle /
                           base.dramBytesPerCycle;
        pt.withDram = base.energy.totalPj() / accel.energy.totalPj();
        return pt;
    });

    std::vector<double> energy_ratio, bw_ratio, cache_ratio;
    for (std::size_t i = 0; i < results.size(); ++i) {
        const PerMatrix &pt = results[i];
        energy_ratio.push_back(pt.energy);
        if (pt.bandwidth > 0)
            bw_ratio.push_back(pt.bandwidth);
        cache_ratio.push_back(pt.withDram);
        std::printf("  %-28s energy %5.2fx  bandwidth %5.2fx\n",
                    corpus[i].name.c_str(), pt.energy, pt.bandwidth);
    }

    std::printf("\n== CSB SpMV: energy and bandwidth "
                "(VIA vs software CSB) ==\n");
    std::vector<std::vector<std::string>> rows;
    rows.push_back({"processor energy reduction (McPAT scope)",
                    bench::fmt(bench::geomean(energy_ratio)) + "x",
                    "3.8x"});
    rows.push_back({"achieved DRAM bandwidth gain",
                    bench::fmt(bench::geomean(bw_ratio)) + "x",
                    "2.5x"});
    rows.push_back({"energy reduction incl. DRAM device",
                    bench::fmt(bench::geomean(cache_ratio)) + "x",
                    "-"});
    bench::printTable({"metric", "measured", "paper"}, rows);
    return 0;
}
