/**
 * @file
 * The sampled-simulation subsystem (src/sample): checkpoint
 * round-trips, functional warming fidelity, and interval-sampling
 * estimates.
 *
 * The checkpoint contract under test is bit-identity: running
 * kernel A, capturing, and continuing with kernel B must leave the
 * machine in exactly the state a restore-then-B run reaches — every
 * statistic equal and a re-capture byte-identical. Restoring the
 * allocator brk with the pages is what makes post-restore
 * allocations land at the original addresses, so the property holds
 * for every kernel. Malformed images (bad magic, future version,
 * truncation, trailing bytes, mismatched machine geometry, a clock
 * that disagrees with the restored core) must be rejected with
 * SerializeError, never partially applied silently.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "check/sampling_audit.hh"
#include "cpu/machine.hh"
#include "kernels/parallel.hh"
#include "kernels/histogram.hh"
#include "kernels/reference.hh"
#include "kernels/spma.hh"
#include "kernels/spmm.hh"
#include "kernels/stencil.hh"
#include "sample/checkpoint.hh"
#include "sample/sampling.hh"
#include "simcore/rng.hh"
#include "simcore/serialize.hh"
#include "sparse/convert.hh"
#include "sparse/csc.hh"
#include "sparse/generators.hh"

namespace via
{
namespace
{

using sample::Checkpoint;

/** A kernel body runnable on any machine, by name. */
std::function<void(Machine &)>
kernelBody(const std::string &name)
{
    if (name == "spmv") {
        return [](Machine &m) {
            Rng rng(11);
            Csr a = genUniform(96, 96, 0.05, rng);
            DenseVector x = randomVector(a.cols(), rng);
            auto res = kernels::spmvRun(m, m.backendKind(), a, "csb", x);
            ASSERT_TRUE(allClose(res.y, a.multiply(x)));
        };
    }
    if (name == "spma") {
        return [](Machine &m) {
            Rng rng(12);
            Csr a = genUniform(80, 80, 0.06, rng);
            Csr b = genUniform(80, 80, 0.06, rng);
            auto res = kernels::spmaViaCsr(m, a, b);
            ASSERT_TRUE(closeElements(res.c, addCsr(a, b), 1e-3));
        };
    }
    if (name == "spmm") {
        return [](Machine &m) {
            Rng rng(13);
            Csr a = genUniform(48, 48, 0.08, rng);
            Csr b_csr = genUniform(48, 48, 0.08, rng);
            Csc b = Csc::fromCsr(b_csr);
            auto res = kernels::spmmViaInner(m, a, b);
            ASSERT_TRUE(closeElements(res.c, mulCsr(a, b_csr),
                                      1e-2));
        };
    }
    if (name == "histogram") {
        return [](Machine &m) {
            Rng rng(14);
            std::vector<Index> keys(600);
            for (auto &k : keys)
                k = Index(rng.below(128));
            auto res = kernels::histVia(m, keys, 128);
            ASSERT_EQ(res.hist, kernels::refHistogram(keys, 128));
        };
    }
    if (name == "stencil") {
        return [](Machine &m) {
            Rng rng(15);
            DenseMatrix img(24, 24);
            for (auto &p : img.data())
                p = Value(rng.uniform() * 255.0);
            auto res = kernels::stencilVia(m, img);
            DenseMatrix ref = kernels::refConvolve4x4(img);
            ASSERT_TRUE(allClose(res.out.data(), ref.data()));
        };
    }
    ADD_FAILURE() << "unknown kernel " << name;
    return [](Machine &) {};
}

/** Every registered statistic must agree exactly. */
void
expectStatsEqual(Machine &a, Machine &b)
{
    ASSERT_EQ(a.stats().names(), b.stats().names());
    for (const std::string &name : a.stats().names())
        EXPECT_EQ(a.stats().get(name), b.stats().get(name))
            << "stat " << name << " diverged";
    EXPECT_EQ(a.cycles(), b.cycles());
}

class CheckpointPerKernel
    : public ::testing::TestWithParam<const char *>
{
};

// Run kernel A, capture, continue with kernel B — then restore the
// capture into a fresh machine and run B there. Both machines must
// be indistinguishable: every stat equal, re-capture byte-identical.
TEST_P(CheckpointPerKernel, ResumeIsBitIdentical)
{
    MachineParams params{};
    auto warm = kernelBody("histogram");
    auto body = kernelBody(GetParam());

    Machine m1(params);
    warm(m1);
    Checkpoint cp = Checkpoint::capture(m1);
    body(m1);

    Machine m2(params);
    cp.restore(m2);
    body(m2);

    expectStatsEqual(m1, m2);
    EXPECT_EQ(Checkpoint::capture(m1).bytes(),
              Checkpoint::capture(m2).bytes());
}

INSTANTIATE_TEST_SUITE_P(AllKernels, CheckpointPerKernel,
                         ::testing::Values("spmv", "spma", "spmm",
                                           "histogram", "stencil"));

TEST(Checkpoint, CaptureRestoreCaptureIsByteIdentical)
{
    MachineParams params{};
    Machine m1(params);
    kernelBody("spmv")(m1);
    Checkpoint cp = Checkpoint::capture(m1);

    Machine m2(params);
    cp.restore(m2);
    EXPECT_EQ(cp.bytes(), Checkpoint::capture(m2).bytes());
}

// A format's arrays are mapped into simulated memory, not copied;
// the image must not show it. A restore owns every page.
TEST(Checkpoint, MappedUploadMatchesCopiedUpload)
{
    Rng rng(21);
    const Csr a = genUniform(512, 512, 0.2, rng);
    Machine mapped(MachineParams{}), copied(MachineParams{});
    kernels::CsrImage img = kernels::uploadCsr(mapped, a);
    ASSERT_GT(mapped.mem().pagesShared(), 0u);
    EXPECT_EQ(copied.mem().allocArray(a.rowPtr()), img.rowPtr);
    EXPECT_EQ(copied.mem().allocArray(a.colIdx()), img.colIdx);
    EXPECT_EQ(copied.mem().allocArray(a.values()), img.values);
    EXPECT_EQ(copied.mem().pagesShared(), 0u);

    Checkpoint cp = Checkpoint::capture(mapped);
    EXPECT_EQ(cp.bytes(), Checkpoint::capture(copied).bytes());

    Machine restored(MachineParams{});
    cp.restore(restored);
    EXPECT_EQ(restored.mem().pagesTouched(),
              mapped.mem().pagesTouched());
    EXPECT_EQ(restored.mem().pagesShared(), 0u);
    EXPECT_EQ(Checkpoint::capture(restored).bytes(), cp.bytes());
}

TEST(Checkpoint, DiskRoundTrip)
{
    MachineParams params{};
    Machine m1(params);
    kernelBody("spma")(m1);
    Checkpoint cp = Checkpoint::capture(m1);

    std::string path = ::testing::TempDir() + "via_cp_test.bin";
    cp.writeFile(path);
    Checkpoint back = Checkpoint::readFile(path);
    EXPECT_EQ(cp.bytes(), back.bytes());

    Machine m2(params);
    back.restore(m2);
    expectStatsEqual(m1, m2);
    std::remove(path.c_str());

    // A missing file fails loudly rather than restoring nothing.
    EXPECT_THROW(Checkpoint::readFile(path), SerializeError);
}

TEST(Checkpoint, RejectsBadMagic)
{
    std::vector<std::uint8_t> junk(64, 0xab);
    Machine m(MachineParams{});
    EXPECT_THROW(Checkpoint::fromBytes(junk).restore(m),
                 SerializeError);
}

TEST(Checkpoint, RejectsFutureVersion)
{
    Machine m1(MachineParams{});
    std::vector<std::uint8_t> bytes =
        Checkpoint::capture(m1).bytes();
    // The version is the second 8-byte word of the header.
    bytes[8] = std::uint8_t(Checkpoint::VERSION + 1);

    Machine m2(MachineParams{});
    EXPECT_THROW(Checkpoint::fromBytes(bytes).restore(m2),
                 SerializeError);

    // readFile validates the header eagerly too.
    std::string path = ::testing::TempDir() + "via_cp_future.bin";
    Checkpoint::fromBytes(bytes).writeFile(path);
    EXPECT_THROW(Checkpoint::readFile(path), SerializeError);
    std::remove(path.c_str());
}

TEST(Checkpoint, RejectsTruncatedImage)
{
    Machine m1(MachineParams{});
    kernelBody("spmv")(m1);
    std::vector<std::uint8_t> bytes =
        Checkpoint::capture(m1).bytes();
    bytes.resize(bytes.size() / 2);

    Machine m2(MachineParams{});
    EXPECT_THROW(Checkpoint::fromBytes(bytes).restore(m2),
                 SerializeError);
}

TEST(Checkpoint, RejectsEveryTruncation)
{
    // Every prefix of a post-kernel image is refused with
    // SerializeError: at a stride over the whole image, and at every
    // length within 64 bytes of each section tag, on both sides: the
    // tags, counts and geometry checks sit at a section's start, and
    // statistics at the end of the section before it.
    Machine m1(MachineParams{});
    kernelBody("spmv")(m1);
    const std::vector<std::uint8_t> bytes =
        Checkpoint::capture(m1).bytes();

    std::vector<std::size_t> lengths;
    for (std::size_t n = 0; n < bytes.size(); n += bytes.size() / 64)
        lengths.push_back(n);
    for (const char *tag :
         {"MACH", "BSTR", "MSYS", "CACH", "DRAM", "RSRC", "SSPM",
          "IDXT", "FIVU", "CORE", "FUPL", "ROBM", "STRK", "SLOT"}) {
        std::size_t sections = 0;
        for (auto at = bytes.begin();
             (at = std::search(at, bytes.end(), tag, tag + 4)) !=
             bytes.end();
             ++at, ++sections) {
            const auto start = std::size_t(at - bytes.begin());
            for (std::size_t k = 0;
                 k < 64 && start + k < bytes.size(); ++k)
                lengths.push_back(start + k);
            for (std::size_t k = 1; k <= 64 && k <= start; ++k)
                lengths.push_back(start - k);
        }
        EXPECT_GT(sections, 0u) << tag;
    }
    std::sort(lengths.begin(), lengths.end());
    lengths.erase(std::unique(lengths.begin(), lengths.end()),
                  lengths.end());

    // Each throw leaves the machine half-written, and the caller
    // discards it: a fresh machine per prefix, destroyed after the
    // throw, must pass the teardown check that VIA_CHECK=1 arms.
    for (std::size_t n : lengths) {
        Checkpoint prefix = Checkpoint::fromBytes(
            {bytes.begin(), bytes.begin() + std::ptrdiff_t(n)});
        Machine fresh(MachineParams{});
        EXPECT_THROW(prefix.restore(fresh), SerializeError) << n;
    }

    // On one machine the whole image then restores over what the
    // failed prefixes left, so its teardown checks a consistent
    // machine again.
    Machine m2(MachineParams{});
    for (std::size_t n : lengths) {
        Checkpoint prefix = Checkpoint::fromBytes(
            {bytes.begin(), bytes.begin() + std::ptrdiff_t(n)});
        EXPECT_THROW(prefix.restore(m2), SerializeError) << n;
    }
    Checkpoint::fromBytes(bytes).restore(m2);
    EXPECT_EQ(Checkpoint::capture(m2).bytes(), bytes);
}

TEST(Checkpoint, RejectsTrailingBytes)
{
    Machine m1(MachineParams{});
    std::vector<std::uint8_t> bytes =
        Checkpoint::capture(m1).bytes();
    bytes.push_back(0);

    Machine m2(MachineParams{});
    EXPECT_THROW(Checkpoint::fromBytes(bytes).restore(m2),
                 SerializeError);
}

TEST(Checkpoint, RejectsGeometryMismatch)
{
    MachineParams big{};
    Machine m1(big);
    Checkpoint cp = Checkpoint::capture(m1);

    MachineParams small{};
    small.via = ViaConfig::make(4, 2);
    Machine m2(small);
    EXPECT_THROW(cp.restore(m2), SerializeError);
}

TEST(Checkpoint, RejectsClockThatDisagreesWithCore)
{
    Machine m1(MachineParams{});
    kernelBody("spmv")(m1);
    std::vector<std::uint8_t> bytes =
        Checkpoint::capture(m1).bytes();
    // The MACH record opens with the two element types, one byte
    // each, then the clock, which holds the commit front in 8 LE
    // bytes.
    const char tag[] = "MACH";
    auto at = std::search(bytes.begin(), bytes.end(), tag, tag + 4);
    ASSERT_NE(at, bytes.end());
    const std::size_t clock = std::size_t(at - bytes.begin()) + 4 + 2;
    Tick stored = 0;
    for (int i = 7; i >= 0; --i)
        stored = (stored << 8) | bytes[clock + std::size_t(i)];
    ASSERT_GT(m1.cycles(), 0u);
    EXPECT_EQ(stored, m1.cycles());

    bytes[clock] ^= 1;
    Machine m2(MachineParams{});
    EXPECT_THROW(Checkpoint::fromBytes(bytes).restore(m2),
                 SerializeError);
}

TEST(Checkpoint, RngStreamRoundTrips)
{
    Machine m1(MachineParams{});
    Rng rng(99);
    rng.next(); // advance off the seed state
    Checkpoint cp = Checkpoint::capture(m1, &rng);
    std::uint64_t expect_a = rng.next();
    std::uint64_t expect_b = rng.next();

    Machine m2(MachineParams{});
    Rng other(7);
    cp.restore(m2, &other);
    EXPECT_EQ(other.next(), expect_a);
    EXPECT_EQ(other.next(), expect_b);
}

TEST(Checkpoint, CloneIsIndependent)
{
    Machine m1(MachineParams{});
    kernelBody("spmv")(m1);
    Checkpoint cp = Checkpoint::capture(m1);
    Checkpoint copy = cp;
    EXPECT_EQ(cp.bytes(), copy.bytes());

    // Restoring from the copy works on a fresh machine (the sweep
    // amortization path: one warm image, many points).
    Machine m2(MachineParams{});
    copy.restore(m2);
    expectStatsEqual(m1, m2);
}

// ------------------------------------------------------------------
// Functional warming fidelity
// ------------------------------------------------------------------

// The warming walk classifies in-flight merges as hits (there is no
// in-flight timing), but every other outcome — tags, reads/writes,
// miss count, DRAM traffic — must match detailed execution exactly.
TEST(Functional, WarmsCachesLikeDetailed)
{
    MachineParams params{};
    Rng rng(21);
    Csr a = genUniform(128, 128, 0.04, rng);
    DenseVector x = randomVector(a.cols(), rng);

    Machine det(params);
    kernels::spmvRun(det, det.backendKind(), a, "csb", x);

    Machine warm(params);
    sample::SampleOptions fopts;
    fopts.mode = sample::SimMode::Functional;
    auto est = sample::runWith(warm, fopts, [&] {
        auto res = kernels::spmvRun(warm, warm.backendKind(), a, "csb", x);
        EXPECT_TRUE(allClose(res.y, a.multiply(x)));
    });
    EXPECT_GT(est.totalInsts, 0u);
    EXPECT_EQ(warm.cycles(), 0u);

    for (std::size_t lvl = 0; lvl < 2; ++lvl) {
        const CacheStats &d = det.memSystem().level(lvl).stats();
        const CacheStats &w = warm.memSystem().level(lvl).stats();
        EXPECT_EQ(w.accesses(), d.accesses()) << "level " << lvl;
        EXPECT_EQ(w.hits, d.hits + d.mshrMerges) << "level " << lvl;
        EXPECT_EQ(w.misses(), d.misses()) << "level " << lvl;
        EXPECT_EQ(w.writebacks, d.writebacks) << "level " << lvl;
    }
    const DramStats &dd = det.memSystem().dram().stats();
    const DramStats &wd = warm.memSystem().dram().stats();
    EXPECT_EQ(wd.bytesRead, dd.bytesRead);
    EXPECT_EQ(wd.bytesWritten, dd.bytesWritten);
    EXPECT_EQ(wd.busyCycles, 0u);
}

// ------------------------------------------------------------------
// Interval sampling
// ------------------------------------------------------------------

TEST(Sampling, ShortRunFallsBackToExact)
{
    MachineParams params{};
    auto body = kernelBody("spmv");

    Machine det(params);
    body(det);

    Machine smp(params);
    sample::SampleOptions opts;
    opts.mode = sample::SimMode::Sampled;
    opts.interval = 1u << 30; // far longer than the run
    auto est = sample::runWith(smp, opts, [&] { body(smp); });
    EXPECT_TRUE(est.exact);
    EXPECT_EQ(Tick(est.cycles), det.cycles());
}

TEST(Sampling, EstimateWithinAuditBound)
{
    MachineParams params{};
    Rng rng(31);
    Csr a = genUniform(2048, 2048, 0.01, rng);
    DenseVector x = randomVector(a.cols(), rng);

    sample::SampleOptions opts;
    opts.mode = sample::SimMode::Sampled;
    opts.interval = 5000;
    opts.warmup = 300;
    opts.measure = 700;
    auto body = [&](Machine &m) {
        kernels::spmvRun(m, m.backendKind(), a, "csb", x);
    };
    Machine sampled(params);
    sample::SampleEstimate est =
        sample::runWith(sampled, opts, [&] { body(sampled); });
    check::SamplingAudit audit =
        check::auditEstimate(params, est, body, /*bound=*/0.10);
    EXPECT_TRUE(audit.ok) << audit.summary();
    EXPECT_GT(audit.intervals, 3u);
    EXPECT_FALSE(audit.exact);
}

/** The sampling keys, parsed from @p args the way a harness does. */
Options
sampleKeys(const std::vector<std::string> &args)
{
    Options keys("sample_test", "sampling keys");
    sample::addSampleOptions(keys);
    keys.parse(args);
    return keys;
}

TEST(Sampling, OptionValidation)
{
    auto opts = sample::SampleOptions::fromOptions(
        sampleKeys({"mode=sampled", "sample_interval=1000",
                    "sample_warmup=200", "sample_measure=300"}));
    EXPECT_EQ(opts.mode, sample::SimMode::Sampled);
    EXPECT_EQ(opts.interval, 1000u);
    EXPECT_EQ(opts.warmup, 200u);
    EXPECT_EQ(opts.measure, 300u);

    // The registered defaults are SampleOptions' own.
    auto dflt = sample::SampleOptions::fromOptions(sampleKeys({}));
    sample::SampleOptions model;
    EXPECT_EQ(dflt.mode, model.mode);
    EXPECT_EQ(dflt.interval, model.interval);
    EXPECT_EQ(dflt.warmup, model.warmup);
    EXPECT_EQ(dflt.measure, model.measure);
}

TEST(SamplingDeath, PhasesBeyondTheIntervalExit2)
{
    EXPECT_EXIT(sample::SampleOptions::fromOptions(sampleKeys(
                    {"mode=sampled", "sample_interval=1000",
                     "sample_warmup=800", "sample_measure=300"})),
                ::testing::ExitedWithCode(2),
                "sample_warmup \\+ sample_measure \\(1100\\) exceeds "
                "sample_interval \\(1000\\)");
    // Only mode=sampled runs the phases.
    auto detailed = sample::SampleOptions::fromOptions(sampleKeys(
        {"sample_interval=1000", "sample_warmup=800"}));
    EXPECT_EQ(detailed.mode, sample::SimMode::Detailed);
}

} // namespace
} // namespace via
