/**
 * @file
 * Property-based sweeps over random matrices (parameterized gtest):
 * every compressed format must preserve the element set exactly and
 * its multiply must agree with CSR's.
 */

#include <gtest/gtest.h>

#include <tuple>

#include "simcore/rng.hh"
#include "sparse/convert.hh"
#include "sparse/csb.hh"
#include "sparse/generators.hh"
#include "sparse/sell_c_sigma.hh"
#include "sparse/spc5.hh"

namespace via
{
namespace
{

/** (family, size, density-ish knob, seed) */
using FormatCase = std::tuple<std::string, Index, double, int>;

Csr
makeMatrix(const FormatCase &c)
{
    auto [family, n, knob, seed] = c;
    Rng rng(std::uint64_t(seed) * 7919 + 13);
    if (family == "banded")
        return genBandedCsr(n, std::max<Index>(1, n / 16), knob, rng);
    if (family == "uniform")
        return genUniform(n, n, knob, rng);
    if (family == "rmat")
        return genRmatCsr(n, std::size_t(knob * double(n) * double(n)),
                          rng);
    if (family == "blocked")
        return genBlocked(n, 8, 0.3, knob, rng);
    return genDiagHeavy(n, knob * 10.0, rng);
}

class FormatRoundTrip
    : public ::testing::TestWithParam<FormatCase>
{
};

TEST_P(FormatRoundTrip, CscPreservesElements)
{
    Csr m = makeMatrix(GetParam());
    EXPECT_TRUE(cscToCsr(Csc::fromCsr(m)) == m);
}

TEST_P(FormatRoundTrip, CsbPreservesElements)
{
    Csr m = makeMatrix(GetParam());
    for (Index beta : {4, 32, 256})
        EXPECT_TRUE(csbToCsr(Csb::fromCsr(m, beta)) == m)
            << "beta=" << beta;
}

TEST_P(FormatRoundTrip, SellMultiplyMatchesCsr)
{
    Csr m = makeMatrix(GetParam());
    Rng rng(5);
    DenseVector x = randomVector(m.cols(), rng);
    DenseVector want = m.multiply(x);
    for (Index c : {4, 8}) {
        SellCSigma s = SellCSigma::fromCsr(m, c, 4 * c);
        EXPECT_TRUE(allClose(s.multiply(x), want))
            << "C=" << c;
        EXPECT_EQ(s.nnz(), m.nnz());
    }
}

TEST_P(FormatRoundTrip, Spc5MultiplyMatchesCsr)
{
    Csr m = makeMatrix(GetParam());
    Rng rng(6);
    DenseVector x = randomVector(m.cols(), rng);
    Spc5 s = Spc5::fromCsr(m, 8);
    EXPECT_TRUE(allClose(s.multiply(x), m.multiply(x)));
    EXPECT_EQ(s.nnz(), m.nnz());
}

TEST_P(FormatRoundTrip, GoldenAddCommutes)
{
    Csr a = makeMatrix(GetParam());
    FormatCase other = GetParam();
    std::get<3>(other) += 100;
    Csr b = makeMatrix(other);
    Csr ab = addCsr(a, b);
    Csr ba = addCsr(b, a);
    EXPECT_TRUE(closeElements(ab, ba, 1e-5));
    EXPECT_GE(ab.nnz(), std::max(a.nnz(), b.nnz()));
    EXPECT_LE(ab.nnz(), a.nnz() + b.nnz());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, FormatRoundTrip,
    ::testing::Values(
        FormatCase{"banded", 64, 0.5, 1},
        FormatCase{"banded", 257, 0.3, 2}, // non-power-of-two size
        FormatCase{"uniform", 96, 0.02, 3},
        FormatCase{"uniform", 200, 0.1, 4},
        FormatCase{"rmat", 128, 0.02, 5},
        FormatCase{"blocked", 120, 0.4, 6},
        FormatCase{"diag", 90, 0.2, 7},
        FormatCase{"uniform", 33, 0.3, 8} // small odd size
        ),
    [](const ::testing::TestParamInfo<FormatCase> &info) {
        return std::get<0>(info.param) + "_" +
               std::to_string(std::get<1>(info.param)) + "_" +
               std::to_string(std::get<3>(info.param));
    });

} // namespace
} // namespace via
