/**
 * @file
 * Unit tests for the statistics framework: Distribution sampling
 * semantics and the StatSet JSON dump, including the exact-precision
 * guarantees that the benchmark harnesses rely on when they parse
 * dumped stats back.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <limits>
#include <map>
#include <sstream>
#include <string>

#include "simcore/stats.hh"

namespace via
{
namespace
{

// ---------------- Distribution ----------------------------------

TEST(Distribution, BucketsClampAtTheEdges)
{
    // 10 equal buckets over [0, 10).
    Distribution d(0.0, 10.0, 10);
    d.sample(-100.0); // far below range -> first bucket
    d.sample(-0.001);
    d.sample(0.0);  // exact lower edge -> first bucket
    d.sample(9.99); // inside the last bucket
    d.sample(10.0); // exact upper edge -> clamped to last bucket
    d.sample(1e9);  // far above range -> last bucket

    ASSERT_EQ(d.buckets().size(), 10u);
    EXPECT_EQ(d.buckets()[0], 3u);
    EXPECT_EQ(d.buckets()[9], 3u);
    for (std::size_t i = 1; i < 9; ++i)
        EXPECT_EQ(d.buckets()[i], 0u) << "bucket " << i;
    EXPECT_EQ(d.count(), 6u);
}

TEST(Distribution, ExtremeSamplesNeverEscapeTheBuckets)
{
    // Values whose bucket position cannot be represented as an
    // integer (NaN, infinities, huge magnitudes) must still land in
    // an end bucket: the index is clamped before any float-to-int
    // conversion, which would otherwise be undefined behaviour.
    Distribution d(0.0, 10.0, 10);
    d.sample(std::numeric_limits<double>::quiet_NaN());
    d.sample(-std::numeric_limits<double>::infinity());
    d.sample(-1.0e300);
    d.sample(std::numeric_limits<double>::infinity());
    d.sample(1.0e300);

    ASSERT_EQ(d.buckets().size(), 10u);
    EXPECT_EQ(d.buckets()[0], 3u); // NaN, -inf, -1e300
    EXPECT_EQ(d.buckets()[9], 2u); // +inf, 1e300
    for (std::size_t i = 1; i < 9; ++i)
        EXPECT_EQ(d.buckets()[i], 0u) << "bucket " << i;
    EXPECT_EQ(d.count(), 5u);
}

TEST(Distribution, UpperEdgeLandsInTheLastBucket)
{
    // v == hi floors to exactly one past the last bucket; it must be
    // clamped back rather than indexing out of range.
    Distribution d(0.0, 8.0, 4);
    d.sample(8.0);
    d.sample(7.9999);
    d.sample(-0.0001); // just below lo -> first bucket
    EXPECT_EQ(d.buckets()[3], 2u);
    EXPECT_EQ(d.buckets()[0], 1u);
    EXPECT_EQ(d.count(), 3u);
}

TEST(Distribution, FirstSampleSetsMinAndMax)
{
    Distribution d(0.0, 1.0, 4);
    // min/max must come from the first sample, not from the zero
    // initializers (a negative first sample must not leave max=0).
    d.sample(-5.0);
    EXPECT_DOUBLE_EQ(d.min(), -5.0);
    EXPECT_DOUBLE_EQ(d.max(), -5.0);

    d.sample(3.0);
    EXPECT_DOUBLE_EQ(d.min(), -5.0);
    EXPECT_DOUBLE_EQ(d.max(), 3.0);
    EXPECT_DOUBLE_EQ(d.sum(), -2.0);
    EXPECT_DOUBLE_EQ(d.mean(), -1.0);
}

TEST(Distribution, PercentileOfEmptyDistributionIsZero)
{
    Distribution d(0.0, 10.0, 10);
    EXPECT_DOUBLE_EQ(d.percentile(50.0), 0.0);
    EXPECT_DOUBLE_EQ(d.p50(), 0.0);
    EXPECT_DOUBLE_EQ(d.p99(), 0.0);
}

TEST(Distribution, PercentileOfSingleSampleIsThatSample)
{
    Distribution d(0.0, 10.0, 10);
    d.sample(7.25);
    EXPECT_DOUBLE_EQ(d.percentile(0.0), 7.25);
    EXPECT_DOUBLE_EQ(d.p50(), 7.25);
    EXPECT_DOUBLE_EQ(d.percentile(100.0), 7.25);
}

TEST(Distribution, PercentilesInterpolateAUniformRamp)
{
    // 1000 samples spread evenly over [0, 1000): the p-th
    // percentile of the underlying data is ~10*p. With 100 buckets
    // the interpolated estimate must land within one bucket width.
    Distribution d(0.0, 1000.0, 100);
    for (int i = 0; i < 1000; ++i)
        d.sample(double(i));

    EXPECT_NEAR(d.p50(), 500.0, 10.0);
    EXPECT_NEAR(d.p95(), 950.0, 10.0);
    EXPECT_NEAR(d.p99(), 990.0, 10.0);
    // Monotone in p.
    EXPECT_LE(d.p50(), d.p95());
    EXPECT_LE(d.p95(), d.p99());
    // Exact at the edges.
    EXPECT_DOUBLE_EQ(d.percentile(0.0), 0.0);
    EXPECT_DOUBLE_EQ(d.percentile(100.0), 999.0);
}

TEST(Distribution, PercentileSingleBucketAllEqualSamples)
{
    // Every sample identical and landing in one bucket: the
    // interpolation walks part-way across that bucket's nominal
    // width, so only the [min, max] clamp keeps the estimate at the
    // sample value, for every p.
    Distribution d(0.0, 10.0, 1);
    d.sample(5.0);
    d.sample(5.0);
    d.sample(5.0);
    for (double p : {0.0, 25.0, 50.0, 95.0, 99.0, 100.0})
        EXPECT_DOUBLE_EQ(d.percentile(p), 5.0) << "p=" << p;
    EXPECT_DOUBLE_EQ(d.p50(), 5.0);
    EXPECT_DOUBLE_EQ(d.p99(), 5.0);
}

TEST(Distribution, PercentileClampsToObservedRange)
{
    // Out-of-range samples land in the end buckets whose nominal
    // edges overshoot the data; the estimate must never escape
    // [min, max].
    Distribution d(0.0, 10.0, 10);
    d.sample(-50.0);
    d.sample(5.0);
    d.sample(200.0);

    EXPECT_GE(d.p50(), d.min());
    EXPECT_LE(d.p50(), d.max());
    EXPECT_DOUBLE_EQ(d.percentile(100.0), 200.0);
    EXPECT_DOUBLE_EQ(d.percentile(0.0), -50.0);
    EXPECT_GE(d.p99(), d.p50());
}

// ---------------- StatSet::dumpJson -----------------------------

/**
 * Parse the flat one-stat-per-line JSON object dumpJson emits into
 * name -> raw value token. Deliberately minimal: it only accepts
 * the exact shape dumpJson produces, so any format drift fails the
 * tests loudly.
 */
std::map<std::string, std::string>
parseFlatJson(const std::string &text)
{
    std::map<std::string, std::string> out;
    std::istringstream is(text);
    std::string line;
    while (std::getline(is, line)) {
        auto key_open = line.find('"');
        if (key_open == std::string::npos)
            continue; // the { } framing lines
        auto key_close = line.find('"', key_open + 1);
        auto colon = line.find(':', key_close);
        EXPECT_NE(key_close, std::string::npos) << line;
        EXPECT_NE(colon, std::string::npos) << line;
        std::string key =
            line.substr(key_open + 1, key_close - key_open - 1);
        std::string value = line.substr(colon + 1);
        while (!value.empty() &&
               (value.front() == ' ' || value.front() == '\t'))
            value.erase(value.begin());
        while (!value.empty() &&
               (value.back() == ',' || value.back() == '\r'))
            value.pop_back();
        out[key] = value;
    }
    return out;
}

TEST(StatSetJson, LargeCountersKeepFullPrecision)
{
    // A counter above 2^46 loses its low digits when printed with
    // the default 6-significant-digit stream precision.
    std::uint64_t big = 123456789012345ull;
    std::uint64_t small = 7;
    StatSet set;
    set.addScalar("big", "", &big);
    set.addScalar("small", "", &small);

    std::ostringstream os;
    set.dumpJson(os);
    auto vals = parseFlatJson(os.str());

    EXPECT_EQ(vals.at("big"), "123456789012345");
    EXPECT_EQ(vals.at("small"), "7");
}

TEST(StatSetJson, IntegralValuesHaveNoExponentOrPoint)
{
    std::uint64_t insts = 455;
    StatSet set;
    set.addScalar("insts", "", &insts);
    set.addFormula("million", "", [] { return 1.0e6; });

    std::ostringstream os;
    set.dumpJson(os);
    auto vals = parseFlatJson(os.str());

    EXPECT_EQ(vals.at("insts"), "455");
    EXPECT_EQ(vals.at("million"), "1000000");
}

TEST(StatSetJson, RoundTripsNonIntegralValuesExactly)
{
    double ipc = 0.1 + 0.2; // not exactly representable
    double tiny = 1.0 / 3.0;
    StatSet set;
    set.addFormula("ipc", "", [&] { return ipc; });
    set.addFormula("tiny", "", [&] { return tiny; });

    std::ostringstream os;
    set.dumpJson(os);
    auto vals = parseFlatJson(os.str());

    // max_digits10 output must parse back to the identical double.
    EXPECT_EQ(std::strtod(vals.at("ipc").c_str(), nullptr), ipc);
    EXPECT_EQ(std::strtod(vals.at("tiny").c_str(), nullptr), tiny);
}

TEST(StatSetJson, NonFiniteValuesDumpAsNull)
{
    StatSet set;
    set.addFormula("nan", "", [] {
        return std::numeric_limits<double>::quiet_NaN();
    });
    set.addFormula("inf", "", [] {
        return std::numeric_limits<double>::infinity();
    });

    std::ostringstream os;
    set.dumpJson(os);
    auto vals = parseFlatJson(os.str());

    EXPECT_EQ(vals.at("nan"), "null");
    EXPECT_EQ(vals.at("inf"), "null");
}

TEST(StatSetJson, IgnoresCallerStreamPrecision)
{
    // A caller that previously printed with precision(1) (e.g. a
    // percentage table) must not truncate the stats dump.
    std::uint64_t cycles = 1074;
    StatSet set;
    set.addScalar("cycles", "", &cycles);

    std::ostringstream os;
    os.precision(1);
    set.dumpJson(os);
    auto vals = parseFlatJson(os.str());

    EXPECT_EQ(vals.at("cycles"), "1074");
}

} // namespace
} // namespace via
