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
 * Usage: energy_bw [count=N] [seed=S] [max_rows=R]
 *                  [backend=base|via|ssr|indexmac]
 */

#include <cstdio>
#include <vector>

#include "common.hh"
#include "cpu/machine.hh"
#include "cpu/machine_config.hh"
#include "kernels/dispatch.hh"
#include "kernels/runner.hh"
#include "simcore/rng.hh"
#include "sparse/corpus.hh"

using namespace via;

int
main(int argc, char **argv)
{
    // Serial harness (no sweep executor), so no threads= key.
    Options opts("energy_bw",
                 "Processor energy and DRAM traffic: VIA vs "
                 "vectorized CSB");
    addSelfProfOption(opts);
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
    Rng rng(55);

    std::vector<double> energy_ratio, bw_ratio, cache_ratio;
    for (const auto &entry : corpus) {
        const Csr &a = entry.matrix;
        DenseVector x = randomVector(a.cols(), rng);

        Machine m1(params);
        kernels::spmvBaseline(m1, a, x, "csb");
        auto base = kernels::collectMetrics(m1);

        Machine m2(params);
        kernels::spmvAccel(m2, a, x, "csb");
        auto accel = kernels::collectMetrics(m2);

        // The paper's 3.8x is McPAT scope: processor energy
        // (leakage + dynamic), not DRAM device energy — both
        // machines stream the same matrix bytes, so including DRAM
        // would cap the ratio regardless of the architecture.
        double base_cpu = base.energy.totalPj() -
                          base.energy.dramPj;
        double accel_cpu = accel.energy.totalPj() -
                           accel.energy.dramPj;
        energy_ratio.push_back(base_cpu / accel_cpu);
        if (accel.dramBytesPerCycle > 0 &&
            base.dramBytesPerCycle > 0)
            bw_ratio.push_back(accel.dramBytesPerCycle /
                               base.dramBytesPerCycle);
        energy_ratio.back() = std::max(energy_ratio.back(), 1e-9);
        cache_ratio.push_back(base.energy.totalPj() /
                              accel.energy.totalPj());
        std::printf("  %-28s energy %5.2fx  bandwidth %5.2fx\n",
                    entry.name.c_str(), energy_ratio.back(),
                    bw_ratio.empty() ? 0.0 : bw_ratio.back());
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
