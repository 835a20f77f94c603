/**
 * @file
 * Every builder that turns one sorted format into another, and every
 * kernel result assembled from simulated memory, pinned bit for bit
 * by FNV-1a-64 hashes of its arrays.
 *
 * FormatRoundTrip checks that a conversion and its inverse give back
 * the input; an element order that is wrong the same way in both
 * directions passes it. These hashes do not: they pin the exact
 * arrays (including CSB's in-block order and the summation order of
 * duplicate keys) for inputs with rectangular shapes, empty rows and
 * columns, a block side that divides neither dimension, rows longer
 * than 32 entries and sums that cancel to exact zeros.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "cpu/machine.hh"
#include "cpu/multi_machine.hh"
#include "kernels/backend_kernels.hh"
#include "kernels/parallel.hh"
#include "kernels/spma.hh"
#include "kernels/spmm.hh"
#include "simcore/rng.hh"
#include "sparse/convert.hh"
#include "sparse/csb.hh"
#include "sparse/csc.hh"
#include "sparse/csr.hh"

namespace via
{
namespace
{

/** Fold @p v's bytes into the FNV-1a-64 state @p h. */
template <typename T>
std::uint64_t
fnv(std::uint64_t h, const std::vector<T> &v)
{
    const auto *p = reinterpret_cast<const unsigned char *>(v.data());
    for (std::size_t i = 0; i < v.size() * sizeof(T); ++i) {
        h ^= p[i];
        h *= 1099511628211ull;
    }
    return h;
}

std::string
hex(std::uint64_t h)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx", (unsigned long long)h);
    return buf;
}

constexpr std::uint64_t kFnvBasis = 1469598103934665603ull;

std::string
hashOf(const Csr &m)
{
    std::uint64_t h = fnv(kFnvBasis, std::vector<Index>{m.rows(),
                                                        m.cols()});
    h = fnv(h, m.rowPtr());
    h = fnv(h, m.colIdx());
    return hex(fnv(h, m.values()));
}

std::string
hashOf(const Csc &m)
{
    std::uint64_t h = fnv(kFnvBasis, std::vector<Index>{m.rows(),
                                                        m.cols()});
    h = fnv(h, m.colPtr());
    h = fnv(h, m.rowIdx());
    return hex(fnv(h, m.values()));
}

std::string
hashOf(const Csb &m)
{
    std::uint64_t h = fnv(
        kFnvBasis, std::vector<Index>{m.rows(), m.cols(), m.beta()});
    h = fnv(h, m.blockPtr());
    h = fnv(h, m.packedIdx());
    return hex(fnv(h, m.values()));
}

/**
 * A matrix with the awkward cases at once: rows r % 7 == 3 and
 * columns c % 5 == 2 are empty, row 1 holds every other column
 * (36 entries at 45 columns, more than the canonicalizer's
 * insertion-sort cutoff of 32), and the rest is filled at
 * @p density with values in [-1, 1).
 */
Csr
lumpy(Index rows, Index cols, double density, std::uint64_t seed)
{
    Rng rng(seed);
    Coo coo(rows, cols);
    for (Index r = 0; r < rows; ++r) {
        if (r % 7 == 3)
            continue;
        for (Index c = 0; c < cols; ++c) {
            if (c % 5 == 2)
                continue;
            if (r == 1 || rng.chance(density))
                coo.add(r, c, Value(rng.uniform() * 2.0 - 1.0));
        }
    }
    return Csr::fromCoo(std::move(coo));
}

Csr
negated(const Csr &a)
{
    std::vector<Value> vals = a.values();
    for (Value &v : vals)
        v = -v;
    return Csr::fromParts(a.rows(), a.cols(), a.rowPtr(), a.colIdx(),
                          std::move(vals));
}

/** The two SpMA operand pairs: 71x45 and 1101x1031 (odd sides, so
 *  no power-of-two block side divides either dimension). */
struct Inputs
{
    Csr a = lumpy(71, 45, 0.2, 1);
    Csr b = lumpy(71, 45, 0.2, 2);
    Csr m = lumpy(1101, 1031, 0.01, 3);
    Csr n = lumpy(1101, 1031, 0.01, 4);
    /** SpMM's right operand for a: 45x53. */
    Csr c = lumpy(45, 53, 0.2, 5);
};

const Inputs &
inputs()
{
    static const Inputs in;
    return in;
}

MachineParams
paramsFor(BackendKind kind)
{
    MachineParams p;
    p.backend.kind = kind;
    return p;
}

// The inputs, and the results every correct builder reproduces.
// Round trips give back their input and every SpMA kernel matches
// the golden bit for bit (each key sums at most two values).
const char *const kA = "3e3b3d5fdb91e562";
const char *const kB = "47d6fef14b326213";
const char *const kM = "0cc7bc96723c5e6c";
const char *const kN = "15ca8943a2502d6d";
const char *const kC = "ea0b192e84a32a89";
const char *const kSumAB = "8e2e4533057fc54e";
const char *const kSumMN = "ed1034ac27bafa09";
const char *const kProdAC = "ee031a565dc59fee";

TEST(BuilderHashes, Inputs)
{
    const Inputs &in = inputs();
    EXPECT_EQ(hashOf(in.a), kA);
    EXPECT_EQ(hashOf(in.b), kB);
    EXPECT_EQ(hashOf(in.m), kM);
    EXPECT_EQ(hashOf(in.n), kN);
    EXPECT_EQ(hashOf(in.c), kC);
}

TEST(BuilderHashes, CsbFromCsrAndBack)
{
    const Inputs &in = inputs();
    struct Case
    {
        const Csr *src;
        const char *src_hash;
        Index beta;
        const char *csb;
    };
    const Case cases[] = {
        {&in.a, kA, 2, "62e2049499d5b786"},
        {&in.a, kA, 64, "5928da949c160fb7"},
        {&in.a, kA, 1024, "a0fc7c780e4ce378"},
        {&in.m, kM, 2, "e879b92a73e5a387"},
        {&in.m, kM, 64, "f2b2830ca8bc450c"},
        {&in.m, kM, 1024, "c3e3035ba148574e"},
    };
    for (const Case &c : cases) {
        const Csb csb = Csb::fromCsr(*c.src, c.beta);
        EXPECT_EQ(hashOf(csb), c.csb)
            << c.src->rows() << " rows, beta " << c.beta;
        EXPECT_EQ(hashOf(csbToCsr(csb)), c.src_hash)
            << c.src->rows() << " rows, beta " << c.beta;
    }
}

TEST(BuilderHashes, CscFromCsrAndBack)
{
    const Inputs &in = inputs();
    struct Case
    {
        const Csr *src;
        const char *src_hash;
        const char *csc;
    };
    const Case cases[] = {
        {&in.a, kA, "82b270524552770e"},
        {&in.m, kM, "23bef18ff8ce061f"},
        {&in.c, kC, "0716cd570b86c7b9"},
    };
    for (const Case &c : cases) {
        const Csc csc = Csc::fromCsr(*c.src);
        EXPECT_EQ(hashOf(csc), c.csc) << c.src->rows() << " rows";
        EXPECT_EQ(hashOf(cscToCsr(csc)), c.src_hash)
            << c.src->rows() << " rows";
    }
}

TEST(BuilderHashes, Goldens)
{
    const Inputs &in = inputs();
    EXPECT_EQ(hashOf(addCsr(in.a, in.b)), kSumAB);
    EXPECT_EQ(hashOf(addCsr(in.b, in.a)), kSumAB);
    EXPECT_EQ(hashOf(addCsr(in.m, in.n)), kSumMN);
    // Every sum cancels: a's structure is kept, with exact zeros.
    EXPECT_EQ(hashOf(addCsr(in.a, negated(in.a))), "420c7d6b11b74959");
    EXPECT_EQ(hashOf(mulCsr(in.a, in.c)), kProdAC);
    EXPECT_EQ(hashOf(mulCsr(in.b, in.c)), "510f6e36e699e8e9");
}

TEST(BuilderHashes, SpmaKernelResults)
{
    const Inputs &in = inputs();
    // A 64-entry CAM tiles the long rows into column ranges.
    MachineParams small_cam = paramsFor(BackendKind::Via);
    small_cam.via.camBytes = 256;
    struct Run
    {
        const char *name;
        MachineParams params;
        kernels::SpmaResult (*kernel)(Machine &, const Csr &,
                                      const Csr &);
    };
    const Run runs[] = {
        {"scalar", paramsFor(BackendKind::Via), kernels::spmaScalarCsr},
        {"via", paramsFor(BackendKind::Via), kernels::spmaViaCsr},
        {"via, 64-entry CAM", small_cam, kernels::spmaViaCsr},
        {"ssr", paramsFor(BackendKind::Ssr), kernels::spmaSsrCsr},
        {"indexmac", paramsFor(BackendKind::IndexMac),
         kernels::spmaImacCsr},
    };
    for (const Run &run : runs) {
        Machine mab(run.params);
        EXPECT_EQ(hashOf(run.kernel(mab, in.a, in.b).c), kSumAB)
            << run.name;
        Machine mmn(run.params);
        EXPECT_EQ(hashOf(run.kernel(mmn, in.m, in.n).c), kSumMN)
            << run.name;
    }
}

TEST(BuilderHashes, SpmaParallelResults)
{
    const Inputs &in = inputs();
    using kernels::Partition;
    for (Partition part : {Partition::Static, Partition::Steal}) {
        for (bool via : {false, true}) {
            MultiMachine mab(MachineParams{}, 4);
            EXPECT_EQ(
                hashOf(kernels::spmaParallel(mab, in.a, in.b, part, via)
                           .c),
                kSumAB)
                << kernels::partitionName(part) << ", via=" << via;
            MultiMachine mmn(MachineParams{}, 4);
            EXPECT_EQ(
                hashOf(kernels::spmaParallel(mmn, in.m, in.n, part, via)
                           .c),
                kSumMN)
                << kernels::partitionName(part) << ", via=" << via;
        }
    }
}

TEST(BuilderHashes, SpmmKernelResults)
{
    const Inputs &in = inputs();
    const Csc c = Csc::fromCsr(in.c);
    Machine scalar(MachineParams{});
    EXPECT_EQ(hashOf(kernels::spmmScalarInner(scalar, in.a, c).c),
              kProdAC);
    // The CAM reduction sums in float in its own order.
    Machine via(MachineParams{});
    EXPECT_EQ(hashOf(kernels::spmmViaInner(via, in.a, c).c),
              "12ce3ff0fe85c676");
}

} // namespace
} // namespace via
