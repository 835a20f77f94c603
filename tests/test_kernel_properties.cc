/**
 * @file
 * Parameterized end-to-end property: on random matrices from every
 * generator family, each simulated SpMV variant must reproduce the
 * golden result, and the VIA CSB kernel must never lose to the
 * software CSB kernel by more than a small factor (sanity bound on
 * timing behaviour, not a benchmark).
 */

#include <gtest/gtest.h>

#include <tuple>

#include "cpu/machine.hh"
#include "kernels/parallel.hh"
#include "kernels/spmv.hh"
#include "simcore/rng.hh"
#include "sparse/generators.hh"

namespace via
{
namespace
{

using KernelCase = std::tuple<std::string, Index, int>;

Csr
makeMatrix(const KernelCase &c)
{
    auto [family, n, seed] = c;
    Rng rng(std::uint64_t(seed) * 104729 + 7);
    if (family == "banded")
        return genBandedCsr(n, 4, 0.5, rng);
    if (family == "uniform")
        return genUniform(n, n, 0.03, rng);
    if (family == "rmat")
        return genRmatCsr(n, 6 * std::size_t(n), rng);
    if (family == "blocked")
        return genBlocked(n, 16, 0.25, 0.4, rng);
    return genDiagHeavy(n, 3.0, rng);
}

class SpmvProperty : public ::testing::TestWithParam<KernelCase>
{
};

TEST_P(SpmvProperty, AllVariantsMatchGolden)
{
    Csr a = makeMatrix(GetParam());
    Rng rng(17);
    DenseVector x = randomVector(a.cols(), rng);
    DenseVector golden = a.multiply(x);
    MachineParams params;

    {
        Machine m(params);
        EXPECT_TRUE(allClose(
            kernels::spmvVectorCsr(m, a, x).y, golden));
    }
    {
        Machine m(params);
        EXPECT_TRUE(allClose(
            kernels::spmvRun(m, BackendKind::Via, a, "csr", x).y,
            golden));
    }
    {
        Machine m(params);
        Csb csb = Csb::fromCsr(a, 128);
        EXPECT_TRUE(allClose(
            kernels::spmvVectorCsb(m, csb, x).y, golden));
    }
    {
        Machine m(params);
        Csb csb = Csb::fromCsr(a, kernels::viaCsbBeta(m));
        EXPECT_TRUE(
            allClose(kernels::spmvViaCsb(m, csb, x).y, golden));
    }
    {
        Machine m(params);
        EXPECT_TRUE(allClose(
            kernels::spmvRun(m, m.backendKind(), a, "sell", x).y,
            golden));
    }
    {
        Machine m(params);
        EXPECT_TRUE(allClose(
            kernels::spmvRun(m, m.backendKind(), a, "spc5", x).y,
            golden));
    }
}

TEST_P(SpmvProperty, ViaCsbNeverCollapses)
{
    // Timing sanity: VIA-CSB should be at least as fast as the
    // gather/scatter software CSB kernel on every family.
    Csr a = makeMatrix(GetParam());
    Rng rng(18);
    DenseVector x = randomVector(a.cols(), rng);
    MachineParams params;

    Machine m1(params);
    Csb csb = Csb::fromCsr(a, kernels::viaCsbBeta(m1));
    Tick sw = kernels::spmvVectorCsb(m1, csb, x).cycles;
    Machine m2(params);
    Tick hw = kernels::spmvViaCsb(m2, csb, x).cycles;
    EXPECT_LT(hw, sw);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SpmvProperty,
    ::testing::Values(KernelCase{"banded", 128, 1},
                      KernelCase{"uniform", 160, 2},
                      KernelCase{"rmat", 128, 3},
                      KernelCase{"blocked", 144, 4},
                      KernelCase{"diag", 100, 5},
                      KernelCase{"uniform", 48, 6}),
    [](const ::testing::TestParamInfo<KernelCase> &info) {
        return std::get<0>(info.param) + "_" +
               std::to_string(std::get<1>(info.param));
    });

} // namespace
} // namespace via
