/**
 * @file
 * Figure 9 — design space exploration of the SSPM.
 *
 * Sweeps {4 KB, 16 KB} x {2, 4} ports for the three kernels and
 * reports speedup normalized to each kernel's own 4_2p
 * configuration, exactly as the paper's Figure 9 does.
 *
 * Paper: SpMV +2% (4_4p), +26% (16_2p), +33% (16_4p);
 *        SpMA +4%, +16%, +20%;  SpMM +8%, +5%, +11%.
 *
 * Every (config, matrix, kernel) point is independent, so the sweep
 * fans out over a SweepExecutor; results are collected in
 * submission order, making the table bit-identical at any thread
 * count. Dense vectors are drawn per matrix (pointSeed) so every
 * configuration sees the same input.
 *
 * Usage: fig9_dse [count=N] [seed=S] [max_rows=R] [spma_rows=R1]
 *                 [spmm_rows=R2] [threads=T]
 */

#include <algorithm>
#include <cstdio>
#include <vector>

#include "common.hh"
#include "cpu/machine.hh"
#include "kernels/dispatch.hh"
#include "kernels/spma.hh"
#include "kernels/spmm.hh"
#include "kernels/spmv.hh"
#include "simcore/rng.hh"
#include "sparse/corpus.hh"

using namespace via;

namespace
{

struct Cfg
{
    const char *name;
    std::uint64_t kb;
    std::uint32_t ports;
};

const Cfg configs[] = {
    {"4_2p", 4, 2},
    {"4_4p", 4, 4},
    {"16_2p", 16, 2},
    {"16_4p", 16, 4},
};

constexpr std::size_t NUM_CFGS = 4;

MachineParams
paramsFor(const Cfg &cfg)
{
    MachineParams p;
    p.via = ViaConfig::make(cfg.kb, cfg.ports);
    return p;
}

enum Kernel { KSpmv, KSpma, KSpmm };

struct Point
{
    Kernel kernel;
    std::size_t cfg;
    std::size_t idx;
};

} // namespace

int
main(int argc, char **argv)
{
    Options opts = bench::benchOptions(
        "fig9_dse", "Figure 9: SSPM size x port design space");
    // Large matrices are needed for the SSPM-size axis to matter:
    // small inputs fit a single CSB block / CAM tile at every size.
    // The SpMA corpus shares that floor; SpMM's quadratic pair
    // enumeration keeps its matrices small.
    const Index spmm_min_rows = 96;
    const CorpusSpec corpus_dflt{
        .count = 8, .minRows = 1024, .maxRows = 8192};
    bench::addCorpusOptions(opts, corpus_dflt);
    opts.addUInt("spma_rows", 4096, "largest SpMA corpus dimension",
                 std::uint64_t(corpus_dflt.minRows))
        .addUInt("spmm_rows", 256, "largest SpMM corpus dimension",
                 std::uint64_t(spmm_min_rows));
    opts.parse(argc, argv);
    applySelfProfOption(opts);
    SweepExecutor exec = bench::makeExecutor(opts);

    const CorpusSpec spec = bench::corpusSpec(opts, corpus_dflt);
    auto corpus = buildCorpus(spec);

    // SpMA stresses the CAM: denser rows so the 4 KB configuration
    // has to tile where the 16 KB one does not.
    CorpusSpec add_spec = spec;
    add_spec.maxRows = Index(opts.getUInt("spma_rows"));
    add_spec.minDensity = 0.01;
    auto add_corpus = buildCorpus(add_spec);

    CorpusSpec mm_spec = spec;
    mm_spec.maxRows = Index(opts.getUInt("spmm_rows"));
    mm_spec.minRows = spmm_min_rows;
    mm_spec.minDensity = 0.01;
    mm_spec.count = std::min<std::size_t>(spec.count, 6);
    auto mm_corpus = buildCorpus(mm_spec);

    // One x per matrix, identical across configurations so the
    // speedup ratios compare like with like.
    std::vector<DenseVector> xs;
    xs.reserve(corpus.size());
    for (std::size_t i = 0; i < corpus.size(); ++i) {
        Rng rng(SweepExecutor::pointSeed(99, i));
        xs.push_back(randomVector(corpus[i].matrix.cols(), rng));
    }

    // Matrices whose densest row exceeds any configuration's CAM
    // are excluded for *all* configurations, so the per-config
    // cycle vectors stay aligned.
    std::vector<std::size_t> mm_ok;
    for (std::size_t i = 0; i < mm_corpus.size(); ++i)
        if (std::all_of(std::begin(configs), std::end(configs),
                        [&](const Cfg &c) {
                            return kernels::spmmFits(
                                paramsFor(c), mm_corpus[i].matrix);
                        }))
            mm_ok.push_back(i);

    std::vector<Point> points;
    for (std::size_t c = 0; c < NUM_CFGS; ++c) {
        for (std::size_t i = 0; i < corpus.size(); ++i)
            points.push_back({KSpmv, c, i});
        for (std::size_t i = 0; i < add_corpus.size(); ++i)
            points.push_back({KSpma, c, i});
        for (std::size_t i = 0; i < mm_ok.size(); ++i)
            points.push_back({KSpmm, c, mm_ok[i]});
    }

    // Progress goes to stderr so stdout stays byte-identical
    // across thread counts.
    std::fprintf(stderr, "running %zu points on %u threads\n",
                 points.size(), exec.threads());
    auto cycles = exec.run(points.size(), [&](std::size_t p) {
        const Point &pt = points[p];
        MachineParams params = paramsFor(configs[pt.cfg]);
        Machine m(params);
        switch (pt.kernel) {
          case KSpmv: {
            const Csr &a = corpus[pt.idx].matrix;
            Csb csb = Csb::fromCsr(a, kernels::viaCsbBeta(m));
            return double(
                kernels::spmvViaCsb(m, csb, xs[pt.idx]).cycles);
          }
          case KSpma: {
            const Csr &a = add_corpus[pt.idx].matrix;
            return double(kernels::spmaViaCsr(m, a, a).cycles);
          }
          default: {
            const Csr &a = mm_corpus[pt.idx].matrix;
            Csc b = Csc::fromCsr(a);
            return double(kernels::spmmViaInner(m, a, b).cycles);
          }
        }
    });

    // cycles[kernel][config] accumulated as geomean inputs.
    std::vector<double> spmv[NUM_CFGS], spma[NUM_CFGS],
        spmm[NUM_CFGS];
    for (std::size_t p = 0; p < points.size(); ++p) {
        const Point &pt = points[p];
        auto &bucket = pt.kernel == KSpmv   ? spmv[pt.cfg]
                       : pt.kernel == KSpma ? spma[pt.cfg]
                                            : spmm[pt.cfg];
        bucket.push_back(cycles[p]);
    }

    auto norm = [](std::vector<double> *cyc, std::size_t c) {
        // speedup of config c over config 0, geomean over corpus
        std::vector<double> sp;
        for (std::size_t i = 0; i < cyc[c].size(); ++i)
            sp.push_back(cyc[0][i] / cyc[c][i]);
        return bench::geomean(sp);
    };

    std::printf("\n== Figure 9: speedup vs SSPM size/ports "
                "(normalized to 4_2p) ==\n");
    std::vector<std::vector<std::string>> rows;
    const double paper_spmv[] = {1.00, 1.02, 1.26, 1.33};
    const double paper_spma[] = {1.00, 1.04, 1.16, 1.20};
    const double paper_spmm[] = {1.00, 1.08, 1.05, 1.11};
    for (std::size_t c = 0; c < NUM_CFGS; ++c) {
        rows.push_back(
            {configs[c].name, bench::fmt(norm(spmv, c)),
             bench::fmt(paper_spmv[c]), bench::fmt(norm(spma, c)),
             bench::fmt(paper_spma[c]), bench::fmt(norm(spmm, c)),
             bench::fmt(paper_spmm[c])});
    }
    bench::printTable({"config", "SpMV", "(paper)", "SpMA",
                       "(paper)", "SpMM", "(paper)"},
                      rows);
    return 0;
}
