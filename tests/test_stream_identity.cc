/**
 * @file
 * The invariant the range bodies rest on (kernels/ranges.hh): a
 * parallel run on one core emits the single-core instruction stream.
 * Each committed instruction is hashed (opcode, vector length,
 * registers, memory accesses, SSPM and CAM counts) on a single-core
 * Machine and on a one-core MultiMachine, for the five kernels,
 * every SpMV format and all four backends. The streams match except
 * for the three exceptions ranges.hh lists, each pinned by its exact
 * instruction delta.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "cpu/multi_machine.hh"
#include "kernels/dispatch.hh"
#include "kernels/kernel_utils.hh"
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

/** An array the hasher reads at @p to although it sits at @p from. */
struct Relocation
{
    Addr from = 0, to = 0, bytes = 0;
};

/** Records an FNV-1a hash of every committed instruction. */
class StreamHasher : public TimingObserver
{
  public:
    explicit StreamHasher(Relocation moved = {}) : _moved(moved) {}

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
            const bool moved = a.addr >= _moved.from &&
                               a.addr < _moved.from + _moved.bytes;
            mix(moved ? a.addr - _moved.from + _moved.to : a.addr);
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

  private:
    Relocation _moved;
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
               const std::function<void(MultiMachine &)> &run,
               Relocation moved = {})
{
    StreamHasher hasher(moved);
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

/** @p single without its instruction at the first position where it
 *  differs from @p parallel: the single-core c_ptr[0] store. */
Stream
withoutHeadStore(Stream single, const Stream &parallel)
{
    std::size_t i = 0;
    while (i < parallel.size() && single[i] == parallel[i])
        ++i;
    single.erase(single.begin() + std::ptrdiff_t(i));
    return single;
}

TEST(StreamIdentity, SpmvEveryFormatAndBackend)
{
    Rng rng(3);
    Csr a = genUniform(256, 256, 0.03, rng);
    DenseVector x = randomVector(a.cols(), rng);
    for (BackendKind kind : kKinds) {
        for (const std::string &fmt : kernels::spmvFormats()) {
            Stream s = singleStream(kind, [&](Machine &m) {
                kernels::spmvAccel(m, a, x, fmt);
            });
            Stream p = parallelStream(kind, [&](MultiMachine &mm) {
                kernels::spmvParallel(mm, a, x, fmt, Partition::Static,
                                      true);
            });
            if (kind == BackendKind::Base && fmt == "csr") {
                // The cores>1 vector CSR baseline is the VIA body with
                // x gathered: vmulF + vaddF where single-core fuses a
                // vfmaF, one more instruction per vector.
                EXPECT_EQ(s.size(), 3636u);
                EXPECT_EQ(p.size(), 3986u);
                continue;
            }
            EXPECT_FALSE(s.empty()) << label(kind, fmt);
            EXPECT_EQ(s, p) << label(kind, fmt);
        }
    }
}

TEST(StreamIdentity, SpmaAndSpmmDropOnlyTheHeadStore)
{
    Rng rng(4);
    Csr a = genUniform(64, 64, 0.06, rng);
    Csr b = genUniform(64, 64, 0.06, rng);
    Csc bc = Csc::fromCsr(b);
    for (BackendKind kind : kKinds) {
        Stream s = singleStream(
            kind, [&](Machine &m) { kernels::spmaAccel(m, a, b); });
        Stream p = parallelStream(kind, [&](MultiMachine &mm) {
            kernels::spmaParallel(mm, a, b, Partition::Static, true);
        });
        ASSERT_EQ(s.size(), p.size() + 1) << label(kind, "spma");
        EXPECT_EQ(withoutHeadStore(s, p), p) << label(kind, "spma");

        s = singleStream(
            kind, [&](Machine &m) { kernels::spmmAccel(m, a, bc); });
        p = parallelStream(kind, [&](MultiMachine &mm) {
            kernels::spmmParallel(mm, a, bc, Partition::Static, true);
        });
        ASSERT_EQ(s.size(), p.size() + 1) << label(kind, "spmm");
        EXPECT_EQ(withoutHeadStore(s, p), p) << label(kind, "spmm");
    }
}

TEST(StreamIdentity, HistogramAddsOnlyTheReduction)
{
    constexpr Index buckets = 512;
    Rng rng(5);
    std::vector<Index> keys(2000);
    for (Index &k : keys)
        k = Index(rng.below(buckets));
    for (BackendKind kind : kKinds) {
        // Single-core writes the histogram right after the keys. The
        // parallel runner allocates its reduction target there and
        // core 0's partial histogram one bucket array above it, so
        // that array is relocated before hashing.
        Machine probe(paramsOf(kind));
        kernels::upload(probe, keys);
        Relocation moved;
        moved.to = kernels::allocValues(probe, std::size_t(buckets));
        moved.bytes = 4 * Addr(buckets);
        moved.from = moved.to + moved.bytes;

        Stream s = singleStream(kind, [&](Machine &m) {
            kernels::histAccel(m, keys, buckets);
        });
        Stream p = parallelStream(
            kind,
            [&](MultiMachine &mm) {
                kernels::histParallel(mm, keys, buckets,
                                      Partition::Static, true);
            },
            moved);
        // Core 0's reduction: per vector of buckets a broadcast, a
        // load and an add per core, a store, and the loop's salu
        // and branch.
        const std::size_t vl = probe.vl();
        const std::size_t reduction = (buckets + vl - 1) / vl * 6;
        EXPECT_EQ(reduction, 384u);
        ASSERT_EQ(p.size(), s.size() + reduction) << label(kind, "hist");
        p.resize(s.size());
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
            kind, [&](Machine &m) { kernels::stencilAccel(m, img); });
        Stream p = parallelStream(kind, [&](MultiMachine &mm) {
            kernels::stencilParallel(mm, img, Partition::Static, true);
        });
        EXPECT_FALSE(s.empty()) << label(kind, "stencil");
        EXPECT_EQ(s, p) << label(kind, "stencil");
    }
}

} // namespace
} // namespace via
