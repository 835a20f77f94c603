/**
 * @file
 * Ablation — sensitivity of the headline SpMV result to the gather
 * cost model (DESIGN.md section 4.4).
 *
 * The paper's challenge 1 rests on gathers being expensive (22+
 * cycles best case). This sweep varies the fixed gather overhead
 * and the per-element port occupancy and reports the VIA-CSB
 * speedup over software CSB for each point, showing how much of the
 * result the gather model accounts for.
 *
 * Usage: ablation_gather_cost [count=N] [seed=S] [max_rows=R]
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
        "ablation_gather_cost",
        "Ablation: gather cost vs VIA-CSB speedup");
    const CorpusSpec corpus_dflt{.count = 6, .maxRows = 2048};
    bench::addCorpusOptions(opts, corpus_dflt);
    opts.parse(argc, argv);
    applySelfProfOption(opts);
    auto corpus = buildCorpus(bench::corpusSpec(opts, corpus_dflt));

    struct Point
    {
        Tick overhead;
        Tick port_factor;
    };
    const Point points[] = {{0, 1}, {8, 1}, {18, 1}, {18, 2},
                            {30, 2}};

    std::printf("== Ablation: gather cost vs VIA-CSB speedup ==\n");
    // The serial sweep re-seeded Rng(44) per cost point; drawing
    // the vectors once preserves identical inputs at every point.
    std::vector<DenseVector> xs;
    {
        Rng rng(44);
        for (const auto &entry : corpus)
            xs.push_back(randomVector(entry.matrix.cols(), rng));
    }

    const std::size_t n_points = std::size(points);
    SweepExecutor exec = bench::makeExecutor(opts);
    auto speedups =
        exec.run(n_points * corpus.size(), [&](std::size_t p) {
            const Point &pt = points[p / corpus.size()];
            std::size_t i = p % corpus.size();
            MachineParams params;
            params.core.latencies.gatherOverhead = pt.overhead;
            params.core.latencies.gatherPortFactor =
                pt.port_factor;

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
    for (std::size_t pn = 0; pn < n_points; ++pn) {
        std::vector<double> sp(
            speedups.begin() + pn * corpus.size(),
            speedups.begin() + (pn + 1) * corpus.size());
        rows.push_back({std::to_string(points[pn].overhead) +
                            " cycles",
                        std::to_string(points[pn].port_factor),
                        bench::fmt(bench::geomean(sp)) + "x"});
    }
    bench::printTable({"gather overhead", "port slots/elem",
                       "VIA-CSB speedup"},
                      rows);
    return 0;
}
