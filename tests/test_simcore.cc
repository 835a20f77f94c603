/**
 * @file
 * Unit tests for the simulation-core utilities: StatSet,
 * Distribution, and the deterministic RNG.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "simcore/rng.hh"
#include "simcore/stats.hh"

namespace via
{
namespace
{

TEST(StatSet, ScalarViewsTrackTheCounter)
{
    StatSet stats;
    std::uint64_t counter = 0;
    stats.addScalar("c", "a counter", &counter);
    EXPECT_EQ(stats.get("c"), 0.0);
    counter = 42;
    EXPECT_EQ(stats.get("c"), 42.0);
}

TEST(StatSet, FormulasEvaluateOnDemand)
{
    StatSet stats;
    std::uint64_t a = 10, b = 4;
    stats.addScalar("a", "", &a);
    stats.addScalar("b", "", &b);
    stats.addFormula("ratio", "a/b",
                     [&] { return double(a) / double(b); });
    EXPECT_DOUBLE_EQ(stats.get("ratio"), 2.5);
    b = 5;
    EXPECT_DOUBLE_EQ(stats.get("ratio"), 2.0);
}

TEST(StatSet, DumpContainsAllNames)
{
    StatSet stats;
    std::uint64_t x = 1;
    stats.addScalar("alpha", "first", &x);
    stats.addScalar("beta", "second", &x);
    std::ostringstream os;
    stats.dump(os);
    EXPECT_NE(os.str().find("alpha"), std::string::npos);
    EXPECT_NE(os.str().find("beta"), std::string::npos);
    EXPECT_EQ(stats.names().size(), 2u);
    EXPECT_TRUE(stats.has("alpha"));
    EXPECT_FALSE(stats.has("gamma"));
}

TEST(StatSetDeathTest, UnknownStatIsFatal)
{
    StatSet stats;
    EXPECT_DEATH(stats.get("nope"), "unknown statistic");
}

TEST(Distribution, TracksMoments)
{
    Distribution d(0.0, 10.0, 10);
    for (double v : {1.0, 2.0, 3.0, 4.0})
        d.sample(v);
    EXPECT_EQ(d.count(), 4u);
    EXPECT_DOUBLE_EQ(d.sum(), 10.0);
    EXPECT_DOUBLE_EQ(d.mean(), 2.5);
    EXPECT_DOUBLE_EQ(d.min(), 1.0);
    EXPECT_DOUBLE_EQ(d.max(), 4.0);
}

TEST(Distribution, OutOfRangeSamplesClampToEndBuckets)
{
    Distribution d(0.0, 10.0, 10);
    d.sample(-5.0);
    d.sample(25.0);
    EXPECT_EQ(d.buckets().front(), 1u);
    EXPECT_EQ(d.buckets().back(), 1u);
}

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 2);
}

TEST(Rng, DiscardMatchesRepeatedNext)
{
    // Distances around the 64-bit words and the 256 terms of the
    // jump polynomial, and one of 21 segments of 2^16.
    const std::uint64_t distances[] = {0,   1,   2,   63,  64,
                                       65,  255, 256, 257,
                                       21 * 65536 + 5};
    for (std::uint64_t seed : {1ull, 7ull, 0x9e3779b97f4a7c15ull}) {
        for (std::uint64_t n : distances) {
            Rng stepped(seed), jumped(seed);
            for (std::uint64_t i = 0; i < n; ++i)
                stepped.next();
            jumped.discard(n);
            EXPECT_EQ(jumped.state(), stepped.state())
                << "seed " << seed << ", n " << n;
        }
        Rng split(seed), whole(seed);
        split.discard(1000003);
        split.discard(65);
        whole.discard(1000003 + 65);
        EXPECT_EQ(split.state(), whole.state()) << "seed " << seed;
        // Distances that set the top bits of n.
        const std::uint64_t big = (std::uint64_t(1) << 62) + 3;
        split.discard(big);
        split.discard(big + 2);
        whole.discard(2 * big + 2);
        EXPECT_EQ(split.state(), whole.state()) << "seed " << seed;
    }
}

TEST(Rng, UniformStaysInRange)
{
    Rng rng(9);
    for (int i = 0; i < 1000; ++i) {
        double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, BelowRespectsBound)
{
    Rng rng(10);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(rng.below(17), 17u);
}

TEST(Rng, RangeIsInclusive)
{
    Rng rng(11);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 2000; ++i) {
        auto v = rng.range(3, 6);
        EXPECT_GE(v, 3);
        EXPECT_LE(v, 6);
        saw_lo |= v == 3;
        saw_hi |= v == 6;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, ChanceExtremes)
{
    Rng rng(12);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(rng.chance(0.0));
        EXPECT_TRUE(rng.chance(1.0));
    }
}

} // namespace
} // namespace via
