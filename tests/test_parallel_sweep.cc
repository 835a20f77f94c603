/**
 * @file
 * Tests for the SweepExecutor: submission-order collection, the
 * determinism guarantee (threads=1 and threads=4 produce identical
 * cycles, statistics, and result vectors for the same point set),
 * per-point seeding, and exception propagation.
 */

#include <gtest/gtest.h>

#include <sched.h>

#include <chrono>
#include <set>
#include <stdexcept>
#include <thread>

#include "cpu/machine.hh"
#include "kernels/runner.hh"
#include "kernels/parallel.hh"
#include "simcore/parallel.hh"
#include "simcore/rng.hh"
#include "sparse/generators.hh"

namespace via
{
namespace
{

TEST(SweepExecutor, CollectsResultsInSubmissionOrder)
{
    SweepExecutor exec(4);
    auto out = exec.run(64, [](std::size_t i) {
        // Jitter completion order; collection order must not care.
        if (i % 5 == 0)
            std::this_thread::sleep_for(
                std::chrono::milliseconds(1));
        return int(i * i);
    });
    ASSERT_EQ(out.size(), 64u);
    for (std::size_t i = 0; i < out.size(); ++i)
        EXPECT_EQ(out[i], int(i * i));
}

TEST(SweepExecutor, ZeroThreadsResolvesToHardwareConcurrency)
{
    SweepExecutor exec(0);
    EXPECT_GE(exec.threads(), 1u);
    EXPECT_EQ(exec.threads(), SweepExecutor::hardwareThreads());
}

TEST(SweepExecutor, HardwareThreadsFollowAffinity)
{
    // Pin this thread to the first CPU it may use: the count must
    // follow the mask, not the CPUs online.
    cpu_set_t saved;
    ASSERT_EQ(sched_getaffinity(0, sizeof(saved), &saved), 0);
    int cpu = 0;
    while (!CPU_ISSET(cpu, &saved))
        ++cpu;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    ASSERT_EQ(sched_setaffinity(0, sizeof(one), &one), 0);
    const unsigned pinned = SweepExecutor::hardwareThreads();
    ASSERT_EQ(sched_setaffinity(0, sizeof(saved), &saved), 0);
    EXPECT_EQ(pinned, 1u);
    EXPECT_EQ(SweepExecutor::hardwareThreads(),
              unsigned(CPU_COUNT(&saved)));
}

TEST(SweepExecutor, NestedForEachRunsInline)
{
    // A forEach issued on a pool worker runs every inner point on
    // that worker's thread, and library fan-outs size themselves to
    // one worker there, so nested fan-outs add no threads.
    SweepExecutor outer(4), inner(4);
    struct Ids
    {
        std::thread::id outer;
        std::vector<std::thread::id> inner;
        unsigned workers = 0;
    };
    auto ids = outer.run(8, [&](std::size_t) {
        Ids out{std::this_thread::get_id(), {}, 0};
        out.inner.resize(16);
        inner.forEach(16, [&](std::size_t j) {
            out.inner[j] = std::this_thread::get_id();
        });
        out.workers = SweepExecutor::workersFor(std::size_t(1) << 30);
        return out;
    });
    for (const Ids &point : ids) {
        for (std::thread::id id : point.inner)
            EXPECT_EQ(id, point.outer);
        EXPECT_EQ(point.workers, 1u);
    }
}

TEST(SweepExecutor, HandlesEmptyAndSingletonSweeps)
{
    SweepExecutor exec(4);
    EXPECT_TRUE(exec.run(0, [](std::size_t) { return 1; }).empty());
    auto one = exec.run(1, [](std::size_t i) { return int(i) + 7; });
    ASSERT_EQ(one.size(), 1u);
    EXPECT_EQ(one[0], 7);
}

TEST(SweepExecutor, PointSeedDependsOnlyOnBaseAndIndex)
{
    EXPECT_EQ(SweepExecutor::pointSeed(1, 0),
              SweepExecutor::pointSeed(1, 0));
    EXPECT_NE(SweepExecutor::pointSeed(1, 0),
              SweepExecutor::pointSeed(1, 1));
    EXPECT_NE(SweepExecutor::pointSeed(1, 0),
              SweepExecutor::pointSeed(2, 0));

    std::set<std::uint64_t> seeds;
    for (std::size_t i = 0; i < 1000; ++i)
        seeds.insert(SweepExecutor::pointSeed(99, i));
    EXPECT_EQ(seeds.size(), 1000u) << "seed collision in a sweep";
}

TEST(SweepExecutor, PropagatesPointExceptions)
{
    SweepExecutor exec(4);
    EXPECT_THROW(exec.run(32,
                          [](std::size_t i) -> int {
                              if (i == 7)
                                  throw std::runtime_error("boom");
                              return 0;
                          }),
                 std::runtime_error);
}

/** Everything a simulation point reports that must be stable. */
struct PointResult
{
    Tick cycles = 0;
    std::uint64_t insts = 0;
    std::uint64_t dramReadBytes = 0;
    std::uint64_t dramWriteBytes = 0;
    DenseVector y;
};

/**
 * One self-contained simulation point: matrix and vector drawn from
 * the per-point seed, machine configuration varied by index so the
 * sweep covers several SSPM shapes.
 */
PointResult
simPoint(std::size_t i)
{
    Rng rng(SweepExecutor::pointSeed(42, i));
    Csr a = genUniform(96, 96, 0.05, rng);
    DenseVector x = randomVector(a.cols(), rng);

    MachineParams params;
    params.via = ViaConfig::make(i % 2 ? 16 : 4, i % 3 ? 2 : 4);
    Machine m(params);
    auto res = kernels::spmvRun(m, BackendKind::Via, a, "csr", x);
    auto metrics = kernels::collectMetrics(m);
    return PointResult{res.cycles, metrics.insts,
                       metrics.dramReadBytes,
                       metrics.dramWriteBytes, res.y};
}

TEST(SweepExecutor, ParallelRunIsBitIdenticalToSerial)
{
    const std::size_t n = 8;
    auto serial = SweepExecutor(1).run(n, simPoint);
    auto parallel = SweepExecutor(4).run(n, simPoint);

    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(serial[i].cycles, parallel[i].cycles) << i;
        EXPECT_EQ(serial[i].insts, parallel[i].insts) << i;
        EXPECT_EQ(serial[i].dramReadBytes,
                  parallel[i].dramReadBytes)
            << i;
        EXPECT_EQ(serial[i].dramWriteBytes,
                  parallel[i].dramWriteBytes)
            << i;
        // Bitwise float equality: same point, same arithmetic.
        EXPECT_EQ(serial[i].y, parallel[i].y) << i;
    }
}

TEST(SweepExecutor, RerunIsDeterministic)
{
    auto first = SweepExecutor(4).run(4, simPoint);
    auto second = SweepExecutor(4).run(4, simPoint);
    ASSERT_EQ(first.size(), second.size());
    for (std::size_t i = 0; i < first.size(); ++i) {
        EXPECT_EQ(first[i].cycles, second[i].cycles) << i;
        EXPECT_EQ(first[i].y, second[i].y) << i;
    }
}

} // namespace
} // namespace via
