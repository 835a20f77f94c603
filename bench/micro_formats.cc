/**
 * @file
 * Host-side microbenchmarks (google-benchmark) for the sparse
 * format library itself: construction/conversion throughput and the
 * golden kernels. These measure the library running natively — not
 * the simulated machine — and guard against regressions in the
 * format code that all experiments depend on.
 */

#include <benchmark/benchmark.h>

#include <string>
#include <string_view>
#include <vector>

#include "kernels/reference.hh"
#include "simcore/options.hh"
#include "simcore/rng.hh"
#include "sparse/convert.hh"
#include "sparse/corpus.hh"
#include "sparse/generators.hh"
#include "sparse/sell_c_sigma.hh"
#include "sparse/spc5.hh"

using namespace via;

namespace
{

Csr
benchMatrix(std::int64_t n)
{
    Rng rng(7);
    return genUniform(Index(n), Index(n), 0.01, rng);
}

void
BM_CsrFromCoo(benchmark::State &state)
{
    Csr m = benchMatrix(state.range(0));
    Coo coo = m.toCoo();
    for (auto _ : state) {
        Csr rebuilt = Csr::fromCoo(coo);
        benchmark::DoNotOptimize(rebuilt.nnz());
    }
    state.SetItemsProcessed(std::int64_t(state.iterations()) *
                            std::int64_t(m.nnz()));
}
BENCHMARK(BM_CsrFromCoo)->Arg(512)->Arg(2048);

void
BM_CsbFromCsr(benchmark::State &state)
{
    Csr m = benchMatrix(state.range(0));
    for (auto _ : state) {
        Csb csb = Csb::fromCsr(m, 512);
        benchmark::DoNotOptimize(csb.nnz());
    }
    state.SetItemsProcessed(std::int64_t(state.iterations()) *
                            std::int64_t(m.nnz()));
}
// 16384 (2.7M entries) converts on every CPU, so the time is wall
// time; 512 and 2048 are below the fan-out threshold.
BENCHMARK(BM_CsbFromCsr)->Arg(512)->Arg(2048)->Arg(16384)->UseRealTime();

void
BM_SellFromCsr(benchmark::State &state)
{
    Csr m = benchMatrix(state.range(0));
    for (auto _ : state) {
        SellCSigma s = SellCSigma::fromCsr(m, 8, 32);
        benchmark::DoNotOptimize(s.nnz());
    }
}
BENCHMARK(BM_SellFromCsr)->Arg(512)->Arg(2048);

void
BM_Spc5FromCsr(benchmark::State &state)
{
    Csr m = benchMatrix(state.range(0));
    for (auto _ : state) {
        Spc5 s = Spc5::fromCsr(m, 8);
        benchmark::DoNotOptimize(s.nnz());
    }
}
BENCHMARK(BM_Spc5FromCsr)->Arg(512)->Arg(2048);

void
BM_GoldenSpmv(benchmark::State &state)
{
    Csr m = benchMatrix(state.range(0));
    Rng rng(8);
    DenseVector x = randomVector(m.cols(), rng);
    for (auto _ : state) {
        DenseVector y = m.multiply(x);
        benchmark::DoNotOptimize(y.data());
    }
    state.SetItemsProcessed(std::int64_t(state.iterations()) *
                            std::int64_t(m.nnz()));
}
BENCHMARK(BM_GoldenSpmv)->Arg(512)->Arg(2048);

void
BM_GoldenSpmm(benchmark::State &state)
{
    Csr m = benchMatrix(state.range(0));
    for (auto _ : state) {
        Csr c = mulCsr(m, m);
        benchmark::DoNotOptimize(c.nnz());
    }
}
BENCHMARK(BM_GoldenSpmm)->Arg(256);

void
BM_CorpusBuild(benchmark::State &state)
{
    for (auto _ : state) {
        CorpusSpec spec;
        spec.count = std::size_t(state.range(0));
        spec.maxRows = 512;
        auto corpus = buildCorpus(spec);
        benchmark::DoNotOptimize(corpus.size());
    }
}
BENCHMARK(BM_CorpusBuild)->Arg(4);

} // namespace

// BENCHMARK_MAIN() expanded by hand so key=value arguments go
// through the shared Options contract (help=1 -> table + exit 0,
// unknown key -> exit 2) while --benchmark_* flags still reach
// google-benchmark untouched.
int
main(int argc, char **argv)
{
    Options opts("micro_formats",
                 "Host-side sparse-format microbenchmarks "
                 "(google-benchmark; --benchmark_* flags pass "
                 "through)");
    std::vector<std::string> kv;
    std::vector<char *> gb{argv[0]};
    for (int i = 1; i < argc; ++i) {
        if (std::string_view(argv[i]).starts_with("--benchmark"))
            gb.push_back(argv[i]);
        else
            kv.emplace_back(argv[i]);
    }
    opts.parse(kv);

    int gb_argc = int(gb.size());
    benchmark::Initialize(&gb_argc, gb.data());
    if (benchmark::ReportUnrecognizedArguments(gb_argc, gb.data()))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
