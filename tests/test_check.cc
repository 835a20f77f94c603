/**
 * @file
 * Validation-subsystem tests: the timing invariant checker's pass
 * and deliberate-violation paths, the VIA_CHECK environment wiring,
 * the shared SpMV format dispatch, and the differential fuzzer.
 */

#include <cstdlib>

#include <gtest/gtest.h>

#include "check/fuzz.hh"
#include "check/invariants.hh"
#include "cpu/machine.hh"
#include "kernels/dispatch.hh"
#include "kernels/spmv.hh"
#include "simcore/rng.hh"
#include "sparse/generators.hh"

namespace via
{
namespace
{

/**
 * Temporarily clears VIA_CHECK so deliberately-violated machines do
 * not abort the test binary from ~Machine (the suite runs with
 * VIA_CHECK=1 so every other Machine teardown is checked).
 */
struct EnvGuard
{
    EnvGuard()
    {
        const char *v = std::getenv("VIA_CHECK");
        _had = v != nullptr;
        if (_had) {
            _saved = v;
            ::unsetenv("VIA_CHECK");
        }
    }
    ~EnvGuard()
    {
        if (_had)
            ::setenv("VIA_CHECK", _saved.c_str(), 1);
    }

  private:
    bool _had = false;
    std::string _saved;
};

Csr
smallMatrix(std::uint64_t seed = 7)
{
    Rng rng(seed);
    return genUniform(24, 24, 0.15, rng);
}

// ---------------- environment flag ------------------------------

TEST(CheckEnv, ParsesTruthyValues)
{
    EnvGuard guard;
    EXPECT_FALSE(check::envEnabled());
    ::setenv("VIA_CHECK", "1", 1);
    EXPECT_TRUE(check::envEnabled());
    ::setenv("VIA_CHECK", "TRUE", 1);
    EXPECT_TRUE(check::envEnabled());
    ::setenv("VIA_CHECK", "on", 1);
    EXPECT_TRUE(check::envEnabled());
    ::setenv("VIA_CHECK", "0", 1);
    EXPECT_FALSE(check::envEnabled());
    ::unsetenv("VIA_CHECK");
}

TEST(CheckEnv, MachineAutoAttachFollowsEnv)
{
    EnvGuard guard;
    {
        Machine m{MachineParams{}};
        EXPECT_EQ(m.checker(), nullptr);
    }
    ::setenv("VIA_CHECK", "1", 1);
    {
        Machine m{MachineParams{}};
        EXPECT_NE(m.checker(), nullptr);
    }
    ::unsetenv("VIA_CHECK");
}

// ---------------- checker pass paths ----------------------------

TEST(InvariantChecker, PassesOnRealKernelRun)
{
    Machine m{MachineParams{}};
    auto &checker = m.attachChecker();
    Csr a = smallMatrix();
    Rng rng(3);
    DenseVector x = randomVector(a.cols(), rng);
    auto res = kernels::spmvVectorCsr(m, a, x);
    EXPECT_TRUE(allClose(res.y, a.multiply(x)));
    EXPECT_TRUE(checker.checkAll());
    EXPECT_GT(checker.instsSeen(), 0u);
}

TEST(InvariantChecker, PassesWithTracingAttached)
{
    Machine m{MachineParams{}};
    m.enableTracing(1 << 16);
    auto &checker = m.attachChecker();
    Csr a = smallMatrix();
    Rng rng(4);
    DenseVector x = randomVector(a.cols(), rng);
    kernels::spmvViaCsr(m, a, x);
    EXPECT_TRUE(checker.checkAll());
}

TEST(InvariantChecker, SurvivesTimingReset)
{
    EnvGuard guard;
    Machine m{MachineParams{}};
    auto &checker = m.attachChecker();
    Csr a = smallMatrix();
    Rng rng(5);
    DenseVector x = randomVector(a.cols(), rng);
    kernels::spmvVectorCsr(m, a, x);
    m.core().resetTiming();
    // Ticks restart at zero after a reset; the commit-order check
    // must not flag the restart, and cross-reset bound checks are
    // skipped.
    kernels::spmvVectorCsr(m, a, x);
    EXPECT_TRUE(checker.checkAll());
}

TEST(InvariantChecker, FinalizeIsIdempotent)
{
    EnvGuard guard;
    Machine m{MachineParams{}};
    auto &checker = m.attachChecker();
    m.memSystem().level(0).stats().reads += 1;
    EXPECT_FALSE(checker.checkAll());
    auto count = checker.violationCount();
    EXPECT_FALSE(checker.checkAll());
    EXPECT_EQ(checker.violationCount(), count);
}

// ---------------- deliberate violations -------------------------

TEST(InvariantChecker, CatchesCacheMiscount)
{
    EnvGuard guard;
    Machine m{MachineParams{}};
    auto &checker = m.attachChecker();
    Csr a = smallMatrix();
    Rng rng(6);
    DenseVector x = randomVector(a.cols(), rng);
    kernels::spmvVectorCsr(m, a, x);
    // The exact bug class the merge-accounting fix addressed: an
    // access classified as neither hit, miss, nor merge.
    m.memSystem().level(0).stats().reads += 1;
    EXPECT_FALSE(checker.checkAll());
    ASSERT_FALSE(checker.violations().empty());
    EXPECT_EQ(checker.violations()[0].invariant, "cache-accounting");
}

TEST(InvariantChecker, CatchesDramBusyMiscount)
{
    EnvGuard guard;
    Machine m{MachineParams{}};
    auto &checker = m.attachChecker();
    Csr a = smallMatrix();
    Rng rng(8);
    DenseVector x = randomVector(a.cols(), rng);
    kernels::spmvVectorCsr(m, a, x);
    m.memSystem().dram().stats().busyCycles += 10;
    EXPECT_FALSE(checker.checkAll());
    ASSERT_FALSE(checker.violations().empty());
    EXPECT_EQ(checker.violations()[0].invariant,
              "dram-busy-reconcile");
}

TEST(InvariantChecker, CatchesCamComparatorMiscount)
{
    EnvGuard guard;
    Machine m{MachineParams{}};
    auto &checker = m.attachChecker();
    m.sspm().indexTable().stats().comparisons += 1;
    EXPECT_FALSE(checker.checkAll());
    ASSERT_FALSE(checker.violations().empty());
    EXPECT_EQ(checker.violations()[0].invariant, "cam-comparators");
}

TEST(InvariantChecker, CatchesWindowClamp)
{
    EnvGuard guard;
    Machine m{MachineParams{}};
    auto &checker = m.attachChecker();
    // The first request slides the pipe's window far past tick 0, so
    // the second is moved up to the window base.
    m.memSystem().dram().serve(64, 1'000'000, false);
    m.memSystem().dram().serve(64, 0, false);
    EXPECT_EQ(m.memSystem().dram().pipeClamps(), 1u);
    EXPECT_FALSE(checker.checkAll());
    ASSERT_FALSE(checker.violations().empty());
    EXPECT_EQ(checker.violations()[0].invariant, "window-clamp");
}

TEST(InvariantChecker, CatchesNonMonotoneInstTiming)
{
    EnvGuard guard;
    Machine m{MachineParams{}};
    auto &checker = m.attachChecker();
    Inst inst;
    // issue before dispatch: impossible lifecycle.
    checker.onInstTiming(inst, InstTiming{10, 5, 20, 30});
    EXPECT_FALSE(checker.ok());
    ASSERT_FALSE(checker.violations().empty());
    EXPECT_EQ(checker.violations()[0].invariant, "inst-monotone");
}

TEST(InvariantChecker, CatchesCommitOrderRegression)
{
    EnvGuard guard;
    Machine m{MachineParams{}};
    auto &checker = m.attachChecker();
    Inst inst;
    checker.onInstTiming(inst, InstTiming{1, 2, 3, 10});
    EXPECT_TRUE(checker.ok());
    // A younger instruction committing before an older one breaks
    // in-order commit.
    checker.onInstTiming(inst, InstTiming{1, 2, 3, 5});
    EXPECT_FALSE(checker.ok());
    ASSERT_FALSE(checker.violations().empty());
    EXPECT_EQ(checker.violations()[0].invariant, "commit-order");
    // ...unless a timing reset restarted the clock.
    checker.onTimingReset();
    auto count = checker.violationCount();
    checker.onInstTiming(inst, InstTiming{0, 0, 1, 2});
    EXPECT_EQ(checker.violationCount(), count);
}

TEST(CheckDeathTest, TeardownDiesOnViolationWhenEnvSet)
{
    EXPECT_DEATH(
        {
            ::setenv("VIA_CHECK", "1", 1);
            Machine m{MachineParams{}};
            m.memSystem().level(0).stats().reads += 1;
        },
        "cache-accounting");
}

// ---------------- SpMV format dispatch --------------------------

TEST(SpmvDispatch, KnowsAllFormats)
{
    EXPECT_EQ(kernels::spmvFormats().size(), 4u);
    for (const std::string &fmt : kernels::spmvFormats())
        EXPECT_TRUE(kernels::isSpmvFormat(fmt));
    EXPECT_FALSE(kernels::isSpmvFormat("ellpack"));
}

TEST(SpmvDispatch, BaselineAndViaAgreeWithGolden)
{
    Csr a = smallMatrix(11);
    Rng rng(12);
    DenseVector x = randomVector(a.cols(), rng);
    DenseVector golden = a.multiply(x);
    for (const std::string &fmt : kernels::spmvFormats()) {
        Machine mb{MachineParams{}};
        EXPECT_TRUE(allClose(
            kernels::spmvBaseline(mb, a, x, fmt).y, golden))
            << "baseline " << fmt;
        Machine mv{MachineParams{}};
        EXPECT_TRUE(
            allClose(kernels::spmvAccel(mv, a, x, fmt).y, golden))
            << "via " << fmt;
    }
}

// ---------------- fuzzer ----------------------------------------

TEST(Fuzz, GeneratorIsDeterministic)
{
    Rng r1(42), r2(42);
    Csr a = check::genAdversarial(r1);
    Csr b = check::genAdversarial(r2);
    EXPECT_TRUE(a == b);
    a.validate();
}

TEST(Fuzz, ConfigsCoverAtLeastThreeMachines)
{
    auto configs = check::fuzzConfigs();
    EXPECT_GE(configs.size(), 3u);
    // The points must differ in SSPM capacity or ports, or the
    // sweep collapses to one configuration.
    EXPECT_NE(configs[0].via.name(), configs[1].via.name());
}

TEST(Fuzz, ShortCampaignRunsClean)
{
    check::FuzzOptions opts;
    opts.seeds = 2;
    opts.firstSeed = 900;
    check::FuzzStats stats = check::runFuzz(opts);
    EXPECT_EQ(stats.failures, 0u);
    EXPECT_EQ(stats.seedsRun, 2u);
    EXPECT_GT(stats.kernelRuns, 0u);
}

TEST(Fuzz, InjectedBugIsCaught)
{
    EnvGuard guard;
    check::FuzzOptions opts;
    opts.seeds = 1;
    opts.inject = [](Machine &m) {
        m.memSystem().level(0).stats().reads += 1;
    };
    check::FuzzStats stats = check::runFuzz(opts);
    EXPECT_EQ(stats.failures, 1u);
    EXPECT_EQ(stats.seedsRun, 0u);
}

/** What runFuzz(@p opts) prints on stderr. */
std::string
fuzzStderr(const check::FuzzOptions &opts)
{
    ::testing::internal::CaptureStderr();
    check::runFuzz(opts);
    return ::testing::internal::GetCapturedStderr();
}

// The failure text is the fuzzer's interface: the FAIL line names
// the run, the checker's report follows, and the replay line
// reproduces it.
TEST(Fuzz, SingleCoreFailureTextIsPinned)
{
    EnvGuard guard;
    check::FuzzOptions opts;
    opts.seeds = 1;
    opts.inject = [](Machine &m) {
        m.memSystem().level(0).stats().reads += 1;
    };
    EXPECT_EQ(fuzzStderr(opts),
              "via_fuzz: FAIL kernel=spmv format=csr variant=base "
              "config=16_2p seed=1 (invariant violation)\n"
              "invariant violations: 1 (360 insts observed)\n"
              "  [cache-accounting] l1d: accesses 301 != hits 128 + "
              "misses 28 + merges 144\n"
              "replay: via_fuzz seeds=1 seed=1 kernel=spmv\n");
}

// Perturbing only the cores of a shared-LLC machine lets every
// single-core run pass, so the first failure is a multi-core one.
TEST(Fuzz, MultiCoreFailureTextIsPinned)
{
    EnvGuard guard;
    check::FuzzOptions opts;
    opts.seeds = 1;
    opts.cores = 2;
    opts.inject = [](Machine &m) {
        if (m.memSystem().shared() != nullptr)
            m.memSystem().level(0).stats().reads += 1;
    };
    EXPECT_EQ(fuzzStderr(opts),
              "via_fuzz: FAIL kernel=spmv format=csr variant=base "
              "cores=2 partition=steal config=16_2p seed=1 "
              "(invariant violation)\n"
              "core 0:\n"
              "invariant violations: 1 (186 insts observed)\n"
              "  [cache-accounting] l1d: accesses 156 != hits 33 + "
              "misses 28 + merges 94\n"
              "replay: via_fuzz seeds=1 seed=1 kernel=spmv cores=2\n");
}

} // namespace
} // namespace via
