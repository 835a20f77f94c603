/**
 * @file
 * The invariant the kernel runners rest on (kernels/ranges.hh): a run
 * on one core of a MultiMachine emits the single-core instruction
 * stream. Each committed instruction is hashed (opcode, vector
 * length, registers, memory accesses, SSPM and CAM counts) on a
 * single-core Machine and on a one-core MultiMachine, for the five
 * kernels, every SpMV format and all four backends, and the streams
 * must be equal.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "cpu/multi_machine.hh"
#include "kernels/dispatch.hh"
#include "kernels/parallel.hh"
#include "simcore/rng.hh"
#include "sparse/csc.hh"
#include "sparse/generators.hh"

namespace via
{
namespace
{

using kernels::Partition;
using Stream = std::vector<std::uint64_t>;

/** Records an FNV-1a hash of every committed instruction. */
class StreamHasher : public TimingObserver
{
  public:
    void
    onInstTiming(const Inst &inst, const InstTiming &) override
    {
        std::uint64_t h = 14695981039346656037ull;
        auto mix = [&](std::uint64_t v) {
            h = (h ^ v) * 1099511628211ull;
        };
        mix(std::uint64_t(inst.op));
        mix(inst.vl);
        mix(std::uint64_t(std::int64_t(inst.dst)));
        for (std::int16_t s : inst.src)
            mix(std::uint64_t(std::int64_t(s)));
        for (std::uint8_t i = 0; i < inst.numAccesses; ++i) {
            const MemAccess &a = inst.accesses[i];
            mix(a.addr);
            mix(a.bytes);
            mix(a.isWrite);
        }
        mix(inst.sspmReads);
        mix(inst.sspmWrites);
        mix(inst.camSearches);
        stream.push_back(h);
    }

    void onTimingReset() override {}

    Stream stream;
};

MachineParams
paramsOf(BackendKind kind)
{
    MachineParams params{};
    params.backend.kind = kind;
    return params;
}

/** The stream of @p run on a single-core machine of @p kind. */
Stream
singleStream(BackendKind kind, const std::function<void(Machine &)> &run)
{
    StreamHasher hasher;
    Machine m(paramsOf(kind));
    m.core().addTimingObserver(&hasher);
    run(m);
    m.core().removeTimingObserver(&hasher);
    return hasher.stream;
}

/** The stream of @p run on a one-core MultiMachine of @p kind. */
Stream
parallelStream(BackendKind kind,
               const std::function<void(MultiMachine &)> &run)
{
    StreamHasher hasher;
    MultiMachine mm(paramsOf(kind), 1);
    mm.core(0).core().addTimingObserver(&hasher);
    run(mm);
    mm.core(0).core().removeTimingObserver(&hasher);
    return hasher.stream;
}

constexpr BackendKind kKinds[] = {BackendKind::Base, BackendKind::Via,
                                  BackendKind::Ssr,
                                  BackendKind::IndexMac};

std::string
label(BackendKind kind, const std::string &what)
{
    return std::string(backendName(kind)) + " " + what;
}

TEST(StreamIdentity, SpmvEveryFormatAndBackend)
{
    Rng rng(3);
    Csr a = genUniform(256, 256, 0.03, rng);
    DenseVector x = randomVector(a.cols(), rng);
    for (BackendKind kind : kKinds) {
        for (const std::string &fmt : kernels::spmvFormats()) {
            Stream s = singleStream(kind, [&](Machine &m) {
                kernels::spmvRun(m, kind, a, fmt, x);
            });
            Stream p = parallelStream(kind, [&](MultiMachine &mm) {
                kernels::spmvRun(mm, kind, a, fmt, x);
            });
            EXPECT_FALSE(s.empty()) << label(kind, fmt);
            EXPECT_EQ(s, p) << label(kind, fmt);
        }
    }
}

TEST(StreamIdentity, SpmaAndSpmmMatch)
{
    Rng rng(4);
    Csr a = genUniform(64, 64, 0.06, rng);
    Csr b = genUniform(64, 64, 0.06, rng);
    Csc bc = Csc::fromCsr(b);
    for (BackendKind kind : kKinds) {
        Stream s = singleStream(
            kind, [&](Machine &m) { kernels::spmaRun(m, kind, a, b); });
        Stream p = parallelStream(kind, [&](MultiMachine &mm) {
            kernels::spmaRun(mm, kind, a, b);
        });
        EXPECT_FALSE(s.empty()) << label(kind, "spma");
        EXPECT_EQ(s, p) << label(kind, "spma");

        s = singleStream(
            kind, [&](Machine &m) { kernels::spmmRun(m, kind, a, bc); });
        p = parallelStream(kind, [&](MultiMachine &mm) {
            kernels::spmmRun(mm, kind, a, bc);
        });
        EXPECT_FALSE(s.empty()) << label(kind, "spmm");
        EXPECT_EQ(s, p) << label(kind, "spmm");
    }
}

TEST(StreamIdentity, HistogramMatches)
{
    constexpr Index buckets = 512;
    Rng rng(5);
    std::vector<Index> keys(2000);
    for (Index &k : keys)
        k = Index(rng.below(buckets));
    for (BackendKind kind : kKinds) {
        Stream s = singleStream(kind, [&](Machine &m) {
            kernels::histRun(m, kind, keys, buckets);
        });
        Stream p = parallelStream(kind, [&](MultiMachine &mm) {
            kernels::histRun(mm, kind, keys, buckets);
        });
        EXPECT_FALSE(s.empty()) << label(kind, "hist");
        EXPECT_EQ(s, p) << label(kind, "hist");
    }
}

// An empty key array still gets its setup and, per bucket pass, the
// begin and the drain on one core: a broadcast of the ones vector
// (and the SSR key-stream bind), and for VIA the clear plus five
// instructions per vector of buckets.
TEST(StreamIdentity, ZeroKeyHistogramMatches)
{
    constexpr Index buckets = 64;
    const std::vector<Index> none;
    const std::size_t want[] = {1, 42, 2, 1};
    for (BackendKind kind : kKinds) {
        Stream s = singleStream(kind, [&](Machine &m) {
            kernels::histRun(m, kind, none, buckets);
        });
        Stream p = parallelStream(kind, [&](MultiMachine &mm) {
            kernels::histRun(mm, kind, none, buckets, Partition::Steal);
        });
        EXPECT_EQ(s.size(), want[std::size_t(kind)])
            << label(kind, "hist");
        EXPECT_EQ(s, p) << label(kind, "hist");
    }
}

TEST(StreamIdentity, StencilMatches)
{
    Rng rng(6);
    DenseMatrix img(32, 32);
    for (Value &px : img.data())
        px = Value(rng.uniform() * 255.0);
    for (BackendKind kind : kKinds) {
        Stream s = singleStream(
            kind, [&](Machine &m) { kernels::stencilRun(m, kind, img); });
        Stream p = parallelStream(kind, [&](MultiMachine &mm) {
            kernels::stencilRun(mm, kind, img);
        });
        EXPECT_FALSE(s.empty()) << label(kind, "stencil");
        EXPECT_EQ(s, p) << label(kind, "stencil");
    }
}

} // namespace
} // namespace via
