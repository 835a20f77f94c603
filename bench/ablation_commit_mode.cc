/**
 * @file
 * Ablation — VIA execution eligibility (DESIGN.md section 4.1).
 *
 * The paper executes VIA instructions at commit time to avoid
 * speculative SSPM pollution. In a perfectly-predicted trace model
 * the faithful equivalent is "all older branches resolved"
 * (branch-safe, the default); this ablation also runs the strictly
 * conservative literal reading (every older instruction committed)
 * to show what that serialization would cost.
 *
 * Usage: ablation_commit_mode [count=N] [seed=S] [max_rows=R]
 *        [threads=T]
 */

#include <cstdio>
#include <vector>

#include "common.hh"
#include "cpu/machine.hh"
#include "kernels/spma.hh"
#include "kernels/spmv.hh"
#include "simcore/rng.hh"
#include "sparse/corpus.hh"

using namespace via;

int
main(int argc, char **argv)
{
    Options opts = bench::benchOptions(
        "ablation_commit_mode",
        "Ablation: VIA commit mode (at-commit vs at-issue)");
    const CorpusSpec corpus_dflt{.count = 8, .maxRows = 2048};
    bench::addCorpusOptions(opts, corpus_dflt);
    opts.parse(argc, argv);
    applySelfProfOption(opts);
    auto corpus = buildCorpus(bench::corpusSpec(opts, corpus_dflt));

    // Inputs first (serially, seed 66 as before), then every matrix
    // is an independent point on the executor.
    Rng rng(66);
    std::vector<DenseVector> xs;
    for (const auto &entry : corpus)
        xs.push_back(randomVector(entry.matrix.cols(), rng));

    SweepExecutor exec = bench::makeExecutor(opts);
    struct Cost
    {
        double spmv = 0.0;
        double spma = 0.0;
    };
    auto costs = exec.run(corpus.size(), [&](std::size_t i) {
        const Csr &a = corpus[i].matrix;
        const DenseVector &x = xs[i];

        MachineParams fast, strict;
        strict.core.viaAtCommit = true;

        Machine mf(fast), ms(strict);
        Csb csb = Csb::fromCsr(a, kernels::viaCsbBeta(mf));
        double f = double(kernels::spmvViaCsb(mf, csb, x).cycles);
        double s = double(kernels::spmvViaCsb(ms, csb, x).cycles);

        Machine mf2(fast), ms2(strict);
        double f2 = double(kernels::spmaViaCsr(mf2, a, a).cycles);
        double s2 = double(kernels::spmaViaCsr(ms2, a, a).cycles);
        return Cost{s / f, s2 / f2};
    });

    std::vector<double> spmv_cost, spma_cost;
    for (const Cost &c : costs) {
        spmv_cost.push_back(c.spmv);
        spma_cost.push_back(c.spma);
    }

    std::printf("== Ablation: commit-time vs branch-safe VIA "
                "execution ==\n");
    std::vector<std::vector<std::string>> rows;
    rows.push_back({"SpMV (CSB)",
                    bench::fmt(bench::geomean(spmv_cost)) + "x"});
    rows.push_back({"SpMA (CSR)",
                    bench::fmt(bench::geomean(spma_cost)) + "x"});
    bench::printTable({"kernel", "slowdown when literal commit-time"},
                      rows);
    return 0;
}
