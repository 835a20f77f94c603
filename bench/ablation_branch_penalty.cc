/**
 * @file
 * Ablation — sensitivity of the SpMA result to the branch
 * misprediction penalty.
 *
 * The scalar sorted-merge baseline is limited by unpredictable
 * compare branches; this sweep shows how the VIA speedup scales
 * with the modelled front-end redirect cost (0 = oracle predictor).
 *
 * Usage: ablation_branch_penalty [count=N] [seed=S] [threads=T]
 */

#include <cstdio>
#include <vector>

#include "common.hh"
#include "cpu/machine.hh"
#include "kernels/spma.hh"
#include "simcore/rng.hh"
#include "sparse/corpus.hh"

using namespace via;

int
main(int argc, char **argv)
{
    Options opts = bench::benchOptions(
        "ablation_branch_penalty",
        "Ablation: branch mispredict penalty vs SpMA speedup");
    const CorpusSpec corpus_dflt{.count = 6,
                                 .minRows = 512,
                                 .maxRows = 2048,
                                 .minDensity = 0.004};
    bench::addCorpusOptions(opts, corpus_dflt, "corpus matrices",
                            false);
    opts.parse(argc, argv);
    applySelfProfOption(opts);
    auto corpus = buildCorpus(bench::corpusSpec(opts, corpus_dflt));

    std::printf("== Ablation: mispredict penalty vs SpMA speedup "
                "==\n");
    // Siblings are drawn once (seed 31, as the serial sweep did per
    // penalty) so every penalty point sees identical inputs.
    std::vector<Csr> siblings;
    {
        Rng rng(31);
        for (const auto &entry : corpus)
            siblings.push_back(bench::makeSibling(entry.matrix,
                                                  rng));
    }

    const Tick penalties[] = {Tick(0), Tick(7), Tick(14), Tick(20)};
    const std::size_t n_pen = std::size(penalties);
    SweepExecutor exec = bench::makeExecutor(opts);
    auto speedups =
        exec.run(n_pen * corpus.size(), [&](std::size_t p) {
            std::size_t pen = p / corpus.size();
            std::size_t i = p % corpus.size();
            MachineParams params;
            params.core.latencies.mispredictPenalty =
                penalties[pen];
            const Csr &a = corpus[i].matrix;
            const Csr &b = siblings[i];
            Machine m1(params), m2(params);
            double base =
                double(kernels::spmaScalarCsr(m1, a, b).cycles);
            double viac =
                double(kernels::spmaViaCsr(m2, a, b).cycles);
            return base / viac;
        });

    std::vector<std::vector<std::string>> rows;
    for (std::size_t pen = 0; pen < n_pen; ++pen) {
        std::vector<double> sp(
            speedups.begin() + pen * corpus.size(),
            speedups.begin() + (pen + 1) * corpus.size());
        rows.push_back({std::to_string(penalties[pen]) + " cycles",
                        bench::fmt(bench::geomean(sp)) + "x"});
    }
    bench::printTable({"penalty", "VIA-SpMA speedup"}, rows);
    return 0;
}
