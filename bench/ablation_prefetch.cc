/**
 * @file
 * Ablation — does the headline SpMV win survive a hardware
 * prefetcher? The paper's baseline (like gem5's classic config) has
 * none; a next-N-line L2 prefetcher helps the baseline's streaming
 * and gather misses, so this sweep bounds how much of VIA's
 * advantage is mere latency hiding.
 *
 * Usage: ablation_prefetch [count=N] [seed=S] [max_rows=R]
 *        [threads=T]
 */

#include <cstdio>
#include <vector>

#include "common.hh"
#include "cpu/machine.hh"
#include "kernels/spmv.hh"
#include "simcore/rng.hh"
#include "sparse/corpus.hh"

using namespace via;

int
main(int argc, char **argv)
{
    Options opts = bench::benchOptions(
        "ablation_prefetch",
        "Ablation: L2 next-N-line prefetcher");
    const CorpusSpec corpus_dflt{.count = 6,
                                 .minRows = 1024,
                                 .maxRows = 4096,
                                 .minDensity = 0.002};
    bench::addCorpusOptions(opts, corpus_dflt);
    opts.parse(argc, argv);
    applySelfProfOption(opts);
    auto corpus = buildCorpus(bench::corpusSpec(opts, corpus_dflt));

    std::printf("== Ablation: L2 next-N-line prefetcher ==\n");
    // The serial sweep re-seeded Rng(21) per degree; draw once so
    // every degree point sees identical vectors.
    std::vector<DenseVector> xs;
    {
        Rng rng(21);
        for (const auto &entry : corpus)
            xs.push_back(randomVector(entry.matrix.cols(), rng));
    }

    const std::uint32_t degrees[] = {0u, 2u, 4u, 8u};
    const std::size_t n_deg = std::size(degrees);
    SweepExecutor exec = bench::makeExecutor(opts);
    auto speedups =
        exec.run(n_deg * corpus.size(), [&](std::size_t p) {
            MachineParams params;
            params.mem.prefetch.degree = degrees[p / corpus.size()];
            std::size_t i = p % corpus.size();

            const Csr &a = corpus[i].matrix;
            Machine m1(params), m2(params);
            Csb csb = Csb::fromCsr(a, kernels::viaCsbBeta(m1));
            double base =
                double(kernels::spmvVectorCsb(m1, csb,
                                              xs[i]).cycles);
            double viac =
                double(kernels::spmvViaCsb(m2, csb,
                                           xs[i]).cycles);
            return base / viac;
        });

    std::vector<std::vector<std::string>> rows;
    for (std::size_t d = 0; d < n_deg; ++d) {
        std::vector<double> sp(
            speedups.begin() + d * corpus.size(),
            speedups.begin() + (d + 1) * corpus.size());
        rows.push_back({degrees[d] == 0
                            ? "off"
                            : std::to_string(degrees[d]) +
                                  " lines",
                        bench::fmt(bench::geomean(sp)) + "x"});
    }
    bench::printTable({"prefetch", "VIA-CSB speedup"}, rows);
    return 0;
}
