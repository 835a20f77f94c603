/**
 * @file
 * Section VII-C — SpMM speedup of VIA over the scalar inner-product
 * baseline (Algorithm 3). Paper average: 6.00x.
 *
 * C = A * A^T: both operands share structure, which is the common
 * use in graph analytics (triangle counting, similarity).
 * The quadratic pair enumeration of the inner-product formulation
 * makes large matrices expensive to simulate (as the paper also
 * found, limiting its corpus to 20k rows); the default sizes here
 * are small and can be raised with max_rows=.
 *
 * Matrices run as independent points on a SweepExecutor
 * (threads=N); output is bit-identical at any thread count.
 *
 * backend= picks the accelerated kernel (kernels/dispatch.hh): the
 * VIA CAM kernel by default, or the SSR inner product or the
 * IndexMAC row-wise product. Only the VIA kernel needs every row of
 * A to fit its CAM; matrices that do not are skipped.
 *
 * Usage: fig11b_spmm [count=N] [seed=S] [max_rows=R] [threads=T]
 *                    [backend=base|via|ssr|indexmac]
 */

#include <cstdio>
#include <vector>

#include "common.hh"
#include "cpu/machine.hh"
#include "cpu/machine_config.hh"
#include "kernels/parallel.hh"
#include "simcore/rng.hh"
#include "sparse/convert.hh"
#include "sparse/corpus.hh"
#include "sparse/csc.hh"

using namespace via;

int
main(int argc, char **argv)
{
    Options opts = bench::benchOptions(
        "fig11b_spmm",
        "Figure 11.b: SpMM speedup of VIA over scalar CSR x CSC");
    addMachineOptions(opts);
    const CorpusSpec corpus_dflt{
        .count = 8, .minRows = 96, .maxRows = 320};
    bench::addCorpusOptions(opts, corpus_dflt);
    opts.parse(argc, argv);
    applySelfProfOption(opts);
    MachineParams params = machineParamsFrom(opts);
    auto corpus = buildCorpus(bench::corpusSpec(opts, corpus_dflt));
    SweepExecutor exec = bench::makeExecutor(opts);

    // Decide fits-the-CAM up front so skips print in corpus order
    // and only fitting matrices become sweep points.
    std::vector<std::size_t> fits;
    for (std::size_t i = 0; i < corpus.size(); ++i) {
        if (!kernels::spmmFits(params, corpus[i].matrix))
            std::printf("  %-28s skipped (row exceeds CAM)\n",
                        corpus[i].name.c_str());
        else
            fits.push_back(i);
    }

    auto speedup_of = exec.run(fits.size(), [&](std::size_t p) {
        const Csr &a = corpus[fits[p]].matrix;
        // B = A^T in CSC shares A's arrays structurally.
        Csc b = Csc::fromCsr(transpose(a));

        Machine m1(params), m2(params);
        auto scalar = kernels::spmmScalarInner(m1, a, b);
        auto accel = kernels::spmmRun(m2, m2.backendKind(), a, b);
        return double(scalar.cycles) / double(accel.cycles);
    });

    std::vector<double> nnzs;
    for (std::size_t p = 0; p < fits.size(); ++p) {
        const auto &entry = corpus[fits[p]];
        nnzs.push_back(double(entry.matrix.nnz()));
        std::printf("  %-28s nnz %7.0f  speedup %5.2fx\n",
                    entry.name.c_str(), nnzs.back(),
                    speedup_of[p]);
    }

    if (speedup_of.empty()) {
        std::printf("no matrices fit the CAM; lower max_rows\n");
        return 1;
    }

    std::printf("\n== SpMM: VIA speedup over scalar inner product, "
                "by nnz ==\n");
    auto rows = bench::categoryRows("nnz", nnzs, {speedup_of});
    rows.push_back({"paper avg", "6.00"});
    bench::printTable({"category", "speedup"}, rows);
    return 0;
}
