/**
 * @file
 * Ablation — fine-grained SSPM port sweep (DESIGN.md section 4.2).
 *
 * Figure 9 samples {2, 4} ports; this sweep runs 1..8 ports at
 * 16 KB to locate where the FIVU stops being port-bound for each
 * kernel class (vidx.blkmul moves 3 elements per lane, so it
 * saturates later than the 1-element vidx ops).
 *
 * Usage: ablation_sspm_ports [count=N] [seed=S] [max_rows=R]
 *        [threads=T]
 */

#include <cstdio>
#include <vector>

#include "common.hh"
#include "cpu/machine.hh"
#include "kernels/histogram.hh"
#include "kernels/spmv.hh"
#include "simcore/rng.hh"
#include "sparse/corpus.hh"

using namespace via;

int
main(int argc, char **argv)
{
    Options opts = bench::benchOptions(
        "ablation_sspm_ports",
        "Ablation: SSPM port count vs SpMV speedup");
    const CorpusSpec corpus_dflt{.count = 6, .maxRows = 2048};
    bench::addCorpusOptions(opts, corpus_dflt);
    opts.parse(argc, argv);
    applySelfProfOption(opts);
    auto corpus = buildCorpus(bench::corpusSpec(opts, corpus_dflt));

    Rng rng(33);
    std::vector<DenseVector> xs;
    for (const auto &entry : corpus)
        xs.push_back(randomVector(entry.matrix.cols(), rng));
    auto keys = [&] {
        std::vector<Index> k(8192);
        for (auto &v : k)
            v = Index(rng.below(2048));
        return k;
    }();

    std::printf("== Ablation: SSPM port sweep (16 KB) ==\n");
    const std::uint32_t port_counts[] = {1u, 2u, 4u, 8u};
    const std::size_t n_ports = std::size(port_counts);
    // Per port count: one point per matrix plus one histogram run.
    const std::size_t per_cfg = corpus.size() + 1;
    SweepExecutor exec = bench::makeExecutor(opts);
    auto cycles =
        exec.run(n_ports * per_cfg, [&](std::size_t p) {
            MachineParams params;
            params.via =
                ViaConfig::make(16, port_counts[p / per_cfg]);
            std::size_t i = p % per_cfg;
            Machine m(params);
            if (i == corpus.size())
                return double(
                    kernels::histVia(m, keys, 2048).cycles);
            Csb csb = Csb::fromCsr(corpus[i].matrix,
                                   kernels::viaCsbBeta(m));
            return double(
                kernels::spmvViaCsb(m, csb, xs[i]).cycles);
        });

    std::vector<std::vector<std::string>> rows;
    for (std::size_t c = 0; c < n_ports; ++c) {
        std::vector<double> sp;
        for (std::size_t i = 0; i < corpus.size(); ++i)
            sp.push_back(cycles[i] / cycles[c * per_cfg + i]);
        double hist_sp = cycles[corpus.size()] /
                         cycles[c * per_cfg + corpus.size()];
        rows.push_back({std::to_string(port_counts[c]),
                        bench::fmt(bench::geomean(sp)) + "x",
                        bench::fmt(hist_sp) + "x"});
    }
    bench::printTable({"ports", "SpMV-CSB vs 1p", "hist vs 1p"},
                      rows);
    return 0;
}
