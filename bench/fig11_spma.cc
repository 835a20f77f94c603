/**
 * @file
 * Figure 11 — SpMA speedup of VIA over the scalar sorted-merge
 * baseline, with matrices sorted by nnz and split into four
 * categories. Paper average: 6.14x.
 *
 * C = A + B where B is a structural sibling of A (60% shared
 * positions, 40% fresh ones), matching how matrices of the same
 * discretization are combined in applications.
 *
 * Matrices run as independent points on a SweepExecutor
 * (threads=N); the sibling of each matrix is drawn from a
 * per-point seed, so output is bit-identical at any thread count.
 *
 * backend= picks the accelerated kernel (kernels/dispatch.hh): the
 * VIA CAM merge by default, or the SSR or IndexMAC merge.
 *
 * Usage: fig11_spma [count=N] [seed=S] [max_rows=R] [threads=T]
 *                   [backend=base|via|ssr|indexmac]
 */

#include <cstdio>
#include <vector>

#include "common.hh"
#include "cpu/machine.hh"
#include "cpu/machine_config.hh"
#include "kernels/parallel.hh"
#include "simcore/rng.hh"
#include "sparse/corpus.hh"
#include "sparse/csr.hh"

using namespace via;

int
main(int argc, char **argv)
{
    Options opts = bench::benchOptions(
        "fig11_spma",
        "Figure 11: SpMA speedup of VIA over the scalar merge");
    addMachineOptions(opts);
    const CorpusSpec corpus_dflt{.count = 16, .maxRows = 4096};
    bench::addCorpusOptions(opts, corpus_dflt);
    opts.addUInt("sibling_seed", 77, "sibling-matrix seed");
    opts.parse(argc, argv);
    applySelfProfOption(opts);
    MachineParams params = machineParamsFrom(opts);
    auto corpus = buildCorpus(bench::corpusSpec(opts, corpus_dflt));
    SweepExecutor exec = bench::makeExecutor(opts);
    std::uint64_t sib_seed = opts.getUInt("sibling_seed");

    struct PerMatrix
    {
        double nnz = 0.0;
        double speedup = 0.0;
    };
    auto results = exec.run(corpus.size(), [&](std::size_t i) {
        const Csr &a = corpus[i].matrix;
        Rng rng(SweepExecutor::pointSeed(sib_seed, i));
        Csr b = bench::makeSibling(a, rng);

        Machine m1(params), m2(params);
        auto scalar = kernels::spmaScalarCsr(m1, a, b);
        auto accel = kernels::spmaRun(m2, m2.backendKind(), a, b);
        return PerMatrix{double(a.nnz() + b.nnz()),
                         double(scalar.cycles) /
                             double(accel.cycles)};
    });

    std::vector<double> nnzs, speedups;
    for (std::size_t i = 0; i < results.size(); ++i) {
        nnzs.push_back(results[i].nnz);
        speedups.push_back(results[i].speedup);
        std::printf("  %-28s nnz %8.0f  speedup %5.2fx\n",
                    corpus[i].name.c_str(), results[i].nnz,
                    results[i].speedup);
    }

    std::printf("\n== Figure 11: VIA-SpMA speedup over scalar merge,"
                " by nnz ==\n");
    auto rows = bench::categoryRows("nnz", nnzs, {speedups});
    rows.push_back({"paper avg", "6.14"});
    bench::printTable({"category", "speedup"}, rows);
    return 0;
}
