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
 * than 32 entries and sums that cancel to exact zeros, and for two
 * generated CSB inputs large enough to convert on every CPU.
 */

#include <gtest/gtest.h>

#include <array>
#include <string>
#include <vector>

#include "cpu/machine.hh"
#include "cpu/multi_machine.hh"
#include "kernels/dispatch.hh"
#include "kernels/parallel.hh"
#include "kernels/spma.hh"
#include "kernels/spmm.hh"
#include "simcore/fnv.hh"
#include "simcore/rng.hh"
#include "sparse/convert.hh"
#include "sparse/csb.hh"
#include "sparse/csc.hh"
#include "sparse/csr.hh"
#include "sparse/generators.hh"

#include "hash_util.hh"

namespace via
{
namespace
{

std::string
hashOf(const Csr &m)
{
    const std::array<Index, 2> dims{m.rows(), m.cols()};
    std::uint64_t h = fnv1a64(bytesOf(dims));
    h = fnv1a64(bytesOf(m.rowPtr()), h);
    h = fnv1a64(bytesOf(m.colIdx()), h);
    return hex(fnv1a64(bytesOf(m.values()), h));
}

std::string
hashOf(const Csc &m)
{
    const std::array<Index, 2> dims{m.rows(), m.cols()};
    std::uint64_t h = fnv1a64(bytesOf(dims));
    h = fnv1a64(bytesOf(m.colPtr()), h);
    h = fnv1a64(bytesOf(m.rowIdx()), h);
    return hex(fnv1a64(bytesOf(m.values()), h));
}

std::string
hashOf(const Csb &m)
{
    const std::array<Index, 3> dims{m.rows(), m.cols(), m.beta()};
    std::uint64_t h = fnv1a64(bytesOf(dims));
    h = fnv1a64(bytesOf(m.blockPtr()), h);
    h = fnv1a64(bytesOf(m.packedIdx()), h);
    return hex(fnv1a64(bytesOf(m.values()), h));
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

TEST(BuilderHashes, CsbOfGeneratedInputs)
{
    // Inputs large enough to convert on every CPU: the spmv_csb
    // benchmark's seed-1 matrix at the default machine's beta, and a
    // skewed RMAT matrix with 1024 block rows, most of its blocks
    // empty and its hub rows' blocks long.
    Rng uniform_rng(1), rmat_rng(5);
    struct Case
    {
        const char *name;
        Csr src;
        Index beta;
        const char *src_hash;
        const char *csb;
    };
    const Case cases[] = {
        {"uniform 16384^2 at 0.5%",
         genUniform(16384, 16384, 0.005, uniform_rng), 2048,
         "2cbf2d8d2416f606", "67f801f1fd8c9181"},
        {"rmat 2^17 rows, 2^19 entries",
         genRmatCsr(1 << 17, 1 << 19, rmat_rng), 128,
         "a711452863f21f27", "af100ad6f9869f49"},
    };
    for (const Case &c : cases) {
        EXPECT_EQ(hashOf(c.src), c.src_hash) << c.name;
        const Csb csb = Csb::fromCsr(c.src, c.beta);
        EXPECT_EQ(hashOf(csb), c.csb) << c.name;
        EXPECT_EQ(hashOf(csbToCsr(csb)), c.src_hash) << c.name;
    }
}

TEST(CsbFromCsr, RangesMatchOneRange)
{
    // 60x45 at beta 8: block rows 1..3 (rows 8..31) are empty, the
    // last block row (rows 56..59) and block column (columns 40..44)
    // are partial, and row 5 fills every column.
    Coo coo(60, 45);
    for (Index c = 0; c < 45; ++c)
        coo.add(5, c, Value(c) + 0.5f);
    for (Index r = 32; r < 60; ++r)
        for (Index c = r % 3; c < 45; c += 4 + r % 5)
            coo.add(r, c, Value(r) - Value(c));
    const Csr gaps = Csr::fromCoo(std::move(coo));
    // A skewed input whose 512 x 512 grid at beta 16 is large enough
    // for validate() to check its blocks side by side too.
    Rng rng(11);
    const Csr skewed = genRmatCsr(8192, 100000, rng);
    const Inputs &in = inputs();
    struct Case
    {
        const Csr *src;
        Index beta;
    };
    // Beta 64 and 1024 are above the row count of the 60- and 71-row
    // inputs: one block row, whatever the range count.
    const Case cases[] = {
        {&gaps, 8},   {&gaps, 64},  {&in.a, 2},   {&in.a, 64},
        {&in.a, 1024}, {&in.m, 2},  {&in.m, 64},  {&in.m, 1024},
        {&skewed, 16},
    };
    for (const Case &c : cases) {
        const Csb one = Csb::fromCsr(*c.src, c.beta, 1);
        for (unsigned ranges : {2u, 3u, 4u, 5u, 7u}) {
            const Csb m = Csb::fromCsr(*c.src, c.beta, ranges);
            EXPECT_TRUE(m.blockPtr() == one.blockPtr() &&
                        m.packedIdx() == one.packedIdx() &&
                        m.values() == one.values())
                << c.src->rows() << "x" << c.src->cols() << ", beta "
                << c.beta << ", " << ranges << " ranges";
        }
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
        BackendKind kind;
    };
    const Run runs[] = {
        {"scalar", paramsFor(BackendKind::Via), BackendKind::Base},
        {"via", paramsFor(BackendKind::Via), BackendKind::Via},
        {"via, 64-entry CAM", small_cam, BackendKind::Via},
        {"ssr", paramsFor(BackendKind::Ssr), BackendKind::Ssr},
        {"indexmac", paramsFor(BackendKind::IndexMac),
         BackendKind::IndexMac},
    };
    for (const Run &run : runs) {
        Machine mab(run.params);
        EXPECT_EQ(hashOf(kernels::spmaRun(mab, run.kind, in.a, in.b).c),
                  kSumAB)
            << run.name;
        Machine mmn(run.params);
        EXPECT_EQ(hashOf(kernels::spmaRun(mmn, run.kind, in.m, in.n).c),
                  kSumMN)
            << run.name;
    }
}

TEST(BuilderHashes, SpmaParallelResults)
{
    const Inputs &in = inputs();
    using kernels::Partition;
    for (Partition part : {Partition::Static, Partition::Steal}) {
        for (bool via : {false, true}) {
            const BackendKind kind =
                via ? BackendKind::Via : BackendKind::Base;
            MultiMachine mab(MachineParams{}, 4);
            EXPECT_EQ(
                hashOf(kernels::spmaRun(mab, kind, in.a, in.b, part).c),
                kSumAB)
                << kernels::partitionName(part) << ", via=" << via;
            MultiMachine mmn(MachineParams{}, 4);
            EXPECT_EQ(
                hashOf(kernels::spmaRun(mmn, kind, in.m, in.n, part).c),
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
