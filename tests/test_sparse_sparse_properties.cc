/**
 * @file
 * Parameterized property sweeps for the sparse-sparse kernels
 * (SpMA, SpMM) and the histogram across generator families and
 * machine configurations.
 */

#include <gtest/gtest.h>

#include <tuple>

#include "cpu/machine.hh"
#include "kernels/histogram.hh"
#include "kernels/reference.hh"
#include "kernels/spma.hh"
#include "kernels/spmm.hh"
#include "simcore/rng.hh"
#include "sparse/convert.hh"
#include "sparse/generators.hh"

namespace via
{
namespace
{

using FamilyCase = std::tuple<std::string, Index, int>;

Csr
makeMatrix(const FamilyCase &c, int salt)
{
    auto [family, n, seed] = c;
    Rng rng(std::uint64_t(seed + salt) * 31337 + 11);
    if (family == "banded")
        return genBandedCsr(n, 3, 0.5, rng);
    if (family == "uniform")
        return genUniform(n, n, 0.04, rng);
    if (family == "rmat")
        return genRmatCsr(n, 5 * std::size_t(n), rng);
    if (family == "blocked")
        return genBlocked(n, 8, 0.3, 0.4, rng);
    return genDiagHeavy(n, 2.0, rng);
}

class SparseSparseProperty
    : public ::testing::TestWithParam<FamilyCase>
{
};

TEST_P(SparseSparseProperty, SpmaMatchesGoldenBothKernels)
{
    Csr a = makeMatrix(GetParam(), 0);
    Csr b = makeMatrix(GetParam(), 1);
    Csr golden = addCsr(a, b);
    MachineParams p;
    {
        Machine m(p);
        EXPECT_TRUE(closeElements(
            kernels::spmaScalarCsr(m, a, b).c, golden));
    }
    {
        Machine m(p);
        EXPECT_TRUE(closeElements(
            kernels::spmaViaCsr(m, a, b).c, golden));
    }
}

TEST_P(SparseSparseProperty, SpmaIsSymmetricInItsArguments)
{
    Csr a = makeMatrix(GetParam(), 0);
    Csr b = makeMatrix(GetParam(), 1);
    MachineParams p;
    Machine m1(p), m2(p);
    Csr ab = kernels::spmaViaCsr(m1, a, b).c;
    Csr ba = kernels::spmaViaCsr(m2, b, a).c;
    EXPECT_TRUE(closeElements(ab, ba, 1e-4));
}

TEST_P(SparseSparseProperty, SpmmMatchesGolden)
{
    FamilyCase c = GetParam();
    // Shrink: inner-product SpMM is quadratic in pairs (RMAT needs
    // a power of two).
    std::get<1>(c) = std::min<Index>(std::get<1>(c), 64);
    Csr a = makeMatrix(c, 0);
    Csr b_csr = makeMatrix(c, 1);
    Csc b = Csc::fromCsr(b_csr);
    Csr golden = mulCsr(a, b_csr);
    MachineParams p;
    Machine m(p);
    EXPECT_TRUE(closeElements(kernels::spmmViaInner(m, a, b).c,
                              golden, 1e-2));
}

INSTANTIATE_TEST_SUITE_P(
    Families, SparseSparseProperty,
    ::testing::Values(FamilyCase{"banded", 96, 1},
                      FamilyCase{"uniform", 128, 2},
                      FamilyCase{"rmat", 128, 3},
                      FamilyCase{"blocked", 112, 4},
                      FamilyCase{"diag", 80, 5}),
    [](const ::testing::TestParamInfo<FamilyCase> &info) {
        return std::get<0>(info.param);
    });

class HistogramDistributions
    : public ::testing::TestWithParam<double> // hot-bucket fraction
{
};

TEST_P(HistogramDistributions, AllKernelsExact)
{
    Rng rng(9);
    const Index buckets = 700; // not a power of two
    std::vector<Index> keys(3000);
    Index hot = buckets / 8;
    for (auto &k : keys) {
        k = rng.chance(GetParam())
                ? Index(rng.below(std::uint64_t(hot)))
                : Index(rng.below(std::uint64_t(buckets)));
    }
    auto want = kernels::refHistogram(keys, buckets);
    MachineParams p;
    Machine m1(p), m2(p), m3(p);
    EXPECT_EQ(kernels::histScalar(m1, keys, buckets).hist, want);
    EXPECT_EQ(kernels::histVector(m2, keys, buckets).hist, want);
    EXPECT_EQ(kernels::histVia(m3, keys, buckets).hist, want);
}

INSTANTIATE_TEST_SUITE_P(Skew, HistogramDistributions,
                         ::testing::Values(0.0, 0.5, 0.95, 1.0));

} // namespace
} // namespace via
