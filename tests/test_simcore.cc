/**
 * @file
 * Unit tests for the simulation-core utilities: StatSet,
 * Distribution, the deterministic RNG and the checkpoint serializer.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "simcore/rng.hh"
#include "simcore/serialize.hh"
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

TEST(Serializer, FieldsTakeTheirOwnWidth)
{
    // Each integral field takes sizeof its type, little-endian.
    std::vector<std::uint8_t> out;
    Serializer ser(out);
    ser.put(std::uint8_t(0xab));
    ser.put(std::uint16_t(0xbeef));
    ser.put(std::int32_t(-2));
    ser.put(std::uint64_t(0x0102030405060708));
    EXPECT_EQ(out, (std::vector<std::uint8_t>{0xab, 0xef, 0xbe, 0xfe,
                                              0xff, 0xff, 0xff, 8, 7,
                                              6, 5, 4, 3, 2, 1}));
    Deserializer des(out);
    EXPECT_EQ(des.get<std::uint8_t>(), 0xabu);
    EXPECT_EQ(des.get<std::uint16_t>(), 0xbeefu);
    EXPECT_EQ(des.get<std::int32_t>(), -2);
    EXPECT_EQ(des.get<std::uint64_t>(), 0x0102030405060708u);
    EXPECT_EQ(des.remaining(), 0u);

    // A vector's 8-byte count is checked against the bytes left at
    // the element's width: three 2-byte slots fit in 6, four do not.
    std::vector<std::uint8_t> vec;
    Serializer vser(vec);
    vser.putVec(std::vector<std::uint16_t>{1, 2, 3});
    ASSERT_EQ(vec.size(), 8u + 6u);
    Deserializer vdes(vec);
    EXPECT_EQ(vdes.getVec<std::uint16_t>(),
              (std::vector<std::uint16_t>{1, 2, 3}));
    vec[0] = 4;
    Deserializer too_many(vec);
    EXPECT_THROW(too_many.getVec<std::uint16_t>(), SerializeError);

    // A 4-byte field read as 8 bytes swallows the next tag, so the
    // reader fails there instead of going on misaligned.
    std::vector<std::uint8_t> mixed;
    Serializer mser(mixed);
    mser.put(std::uint32_t(7));
    mser.tag("NEXT");
    mser.put(std::uint32_t(9));
    Deserializer mdes(mixed);
    mdes.get<std::uint64_t>();
    EXPECT_THROW(mdes.expectTag("NEXT"), SerializeError);
}

} // namespace
} // namespace via
