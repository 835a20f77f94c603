/**
 * @file
 * Parameterized sweep of the kernels across VIA hardware
 * configurations (the Fig 9 design space) and machine corner cases:
 * every configuration must stay functionally exact, and uncommon
 * code paths (gather fallback when x exceeds the SSPM, SPC5 y
 * segmentation) must be exercised.
 */

#include <gtest/gtest.h>

#include <tuple>

#include "cpu/machine.hh"
#include "kernels/dispatch.hh"
#include "kernels/histogram.hh"
#include "kernels/reference.hh"
#include "kernels/spma.hh"
#include "kernels/spmv.hh"
#include "simcore/rng.hh"
#include "sparse/convert.hh"
#include "sparse/generators.hh"

namespace via
{
namespace
{

using CfgCase = std::tuple<std::uint64_t, std::uint32_t>; // kb, ports

class DseConfigs : public ::testing::TestWithParam<CfgCase>
{
  protected:
    MachineParams
    params() const
    {
        MachineParams p;
        p.via = ViaConfig::make(std::get<0>(GetParam()),
                                std::get<1>(GetParam()));
        return p;
    }
};

TEST_P(DseConfigs, SpmvCsbExactEverywhere)
{
    Rng rng(1);
    Csr a = genUniform(300, 300, 0.03, rng);
    DenseVector x = randomVector(a.cols(), rng);
    Machine m(params());
    Csb csb = Csb::fromCsr(a, kernels::viaCsbBeta(m));
    EXPECT_TRUE(allClose(kernels::spmvViaCsb(m, csb, x).y,
                         a.multiply(x)));
}

TEST_P(DseConfigs, SpmaExactEverywhere)
{
    Rng rng(2);
    Csr a = genUniform(128, 128, 0.05, rng);
    Csr b = genUniform(128, 128, 0.05, rng);
    Machine m(params());
    EXPECT_TRUE(closeElements(kernels::spmaViaCsr(m, a, b).c,
                              addCsr(a, b)));
}

TEST_P(DseConfigs, HistogramExactEverywhere)
{
    Rng rng(3);
    std::vector<Index> keys(1500);
    for (auto &k : keys)
        k = Index(rng.below(3000)); // tiles on the 4 KB configs
    Machine m(params());
    EXPECT_EQ(kernels::histVia(m, keys, 3000).hist,
              kernels::refHistogram(keys, 3000));
}

INSTANTIATE_TEST_SUITE_P(
    Fig9Space, DseConfigs,
    ::testing::Values(CfgCase{4, 2}, CfgCase{4, 4}, CfgCase{8, 2},
                      CfgCase{16, 2}, CfgCase{16, 4}),
    [](const ::testing::TestParamInfo<CfgCase> &info) {
        return std::to_string(std::get<0>(info.param)) + "kb_" +
               std::to_string(std::get<1>(info.param)) + "p";
    });

TEST(KernelCorners, ViaCsrFallsBackToGathersWhenXTooBig)
{
    // cols > sramEntries forces the gather path of spmvViaCsr.
    MachineParams p;
    p.via = ViaConfig::make(4, 2); // 1024 entries
    Machine m(p);
    Rng rng(4);
    Csr a = genUniform(64, 2048, 0.01, rng);
    ASSERT_GT(std::uint64_t(a.cols()),
              m.sspm().config().sramEntries());
    DenseVector x = randomVector(a.cols(), rng);
    EXPECT_TRUE(
        allClose(kernels::spmvViaCsr(m, a, x).y, a.multiply(x)));
    EXPECT_GT(m.core().stats().gatherElements, 0u);
}

TEST(KernelCorners, ViaSellFallsBackToGathersWhenXTooBig)
{
    MachineParams p;
    p.via = ViaConfig::make(4, 2);
    Machine m(p);
    Rng rng(5);
    Csr a = genUniform(64, 2048, 0.01, rng);
    DenseVector x = randomVector(a.cols(), rng);
    EXPECT_TRUE(allClose(kernels::spmvAccel(m, a, x, "sell").y,
                         a.multiply(x)));
    EXPECT_GT(m.core().stats().gatherElements, 0u);
}

TEST(KernelCorners, ViaSpc5SegmentsTallMatrices)
{
    // rows > sramEntries forces the y-segment flush path.
    MachineParams p;
    p.via = ViaConfig::make(4, 2); // 1024 entries
    Machine m(p);
    Rng rng(6);
    Csr a = genUniform(2048, 256, 0.01, rng);
    ASSERT_GT(std::uint64_t(a.rows()),
              m.sspm().config().sramEntries());
    DenseVector x = randomVector(a.cols(), rng);
    EXPECT_TRUE(allClose(kernels::spmvAccel(m, a, x, "spc5").y,
                         a.multiply(x)));
}

TEST(KernelCorners, OneByOneMatrixWorksEverywhere)
{
    Coo coo(1, 1);
    coo.add(0, 0, 3.0f);
    Csr a = Csr::fromCoo(std::move(coo));
    DenseVector x{2.0f};
    MachineParams p;
    {
        Machine m(p);
        EXPECT_FLOAT_EQ(kernels::spmvScalarCsr(m, a, x).y[0], 6.0f);
    }
    {
        Machine m(p);
        EXPECT_FLOAT_EQ(kernels::spmvVectorCsr(m, a, x).y[0], 6.0f);
    }
    {
        Machine m(p);
        Csb csb = Csb::fromCsr(a, kernels::viaCsbBeta(m));
        EXPECT_FLOAT_EQ(kernels::spmvViaCsb(m, csb, x).y[0], 6.0f);
    }
}

TEST(KernelCorners, FullyEmptyMatrixProducesZeros)
{
    Csr a = Csr::fromCoo(Coo(32, 32));
    DenseVector x(32, 1.0f);
    MachineParams p;
    Machine m(p);
    Csb csb = Csb::fromCsr(a, kernels::viaCsbBeta(m));
    auto res = kernels::spmvViaCsb(m, csb, x);
    EXPECT_EQ(res.y, DenseVector(32, 0.0f));
    Machine m2(p);
    auto add = kernels::spmaViaCsr(m2, a, a);
    EXPECT_EQ(add.c.nnz(), 0u);
}

} // namespace
} // namespace via
