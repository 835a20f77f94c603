/**
 * @file
 * Functional tests for the SpMA and SpMM kernels against the host
 * golden implementations, including CAM-tiling paths.
 */

#include <gtest/gtest.h>

#include "cpu/machine.hh"
#include "cpu/multi_machine.hh"
#include "kernels/backend_kernels.hh"
#include "kernels/parallel.hh"
#include "kernels/ranges.hh"
#include "kernels/spma.hh"
#include "kernels/spmm.hh"
#include "simcore/rng.hh"
#include "sparse/convert.hh"
#include "sparse/generators.hh"

namespace via
{
namespace
{

MachineParams
defaultParams()
{
    return MachineParams{};
}

/** B: a structurally perturbed sibling of A (shared + new columns). */
Csr
perturb(const Csr &a, Rng &rng)
{
    Coo coo(a.rows(), a.cols());
    Coo src = a.toCoo();
    for (const Triplet &t : src.elems()) {
        if (rng.chance(0.6))
            coo.add(t.row, t.col, Value(rng.uniform()));
        if (rng.chance(0.4))
            coo.add(t.row,
                    Index(rng.below(std::uint64_t(a.cols()))),
                    Value(rng.uniform()));
    }
    coo.canonicalize();
    return Csr::fromCoo(std::move(coo));
}

TEST(SpmaKernels, ScalarMatchesGolden)
{
    Rng rng(3);
    Csr a = genUniform(64, 64, 0.06, rng);
    Csr b = perturb(a, rng);
    Machine m(defaultParams());
    auto res = kernels::spmaScalarCsr(m, a, b);
    EXPECT_TRUE(closeElements(res.c, addCsr(a, b)));
    EXPECT_GT(res.cycles, 0u);
}

TEST(SpmaKernels, ViaMatchesGolden)
{
    Rng rng(4);
    Csr a = genUniform(64, 64, 0.06, rng);
    Csr b = perturb(a, rng);
    Machine m(defaultParams());
    auto res = kernels::spmaViaCsr(m, a, b);
    EXPECT_TRUE(closeElements(res.c, addCsr(a, b)));
}

TEST(SpmaKernels, ViaHandlesDisjointAndIdenticalRows)
{
    // Disjoint columns exercise pure insertion; identical columns
    // exercise pure combination.
    Coo ca(8, 32), cb(8, 32);
    for (Index r = 0; r < 8; ++r) {
        ca.add(r, 2 * r, 1.0f);
        cb.add(r, 2 * r + 1, 2.0f); // disjoint
        ca.add(r, 30, 3.0f);
        cb.add(r, 30, 4.0f); // identical
    }
    Csr a = Csr::fromCoo(std::move(ca));
    Csr b = Csr::fromCoo(std::move(cb));
    Machine m(defaultParams());
    auto res = kernels::spmaViaCsr(m, a, b);
    EXPECT_TRUE(closeElements(res.c, addCsr(a, b)));
}

TEST(SpmaKernels, ViaTilesRowsBeyondCamCapacity)
{
    // One dense-ish row far larger than the CAM (1024 entries).
    Coo ca(2, 4096), cb(2, 4096);
    for (Index c = 0; c < 4096; c += 2) {
        ca.add(0, c, Value(c));
        cb.add(0, c + 1, Value(-c));
    }
    for (Index c = 0; c < 4096; c += 4)
        cb.add(0, c, 1.0f); // overlapping part
    cb.canonicalize();
    Csr a = Csr::fromCoo(std::move(ca));
    Csr b = Csr::fromCoo(std::move(cb));
    Machine m(defaultParams());
    ASSERT_GT(a.rowNnz(0) + b.rowNnz(0),
              Index(m.sspm().config().camEntries()));
    auto res = kernels::spmaViaCsr(m, a, b);
    EXPECT_TRUE(closeElements(res.c, addCsr(a, b)));
}

TEST(SpmaKernels, ViaBeatsScalarMerge)
{
    Rng rng(5);
    Csr a = genUniform(256, 256, 0.04, rng);
    Csr b = perturb(a, rng);
    Machine m1(defaultParams()), m2(defaultParams());
    auto scalar = kernels::spmaScalarCsr(m1, a, b);
    auto viak = kernels::spmaViaCsr(m2, a, b);
    EXPECT_LT(viak.cycles, scalar.cycles);
}

TEST(SpmmKernels, ScalarMatchesGolden)
{
    Rng rng(6);
    Csr a = genUniform(48, 48, 0.08, rng);
    Csr b_csr = genUniform(48, 48, 0.08, rng);
    Csc b = Csc::fromCsr(b_csr);
    Machine m(defaultParams());
    auto res = kernels::spmmScalarInner(m, a, b);
    EXPECT_TRUE(closeElements(res.c, mulCsr(a, b_csr), 1e-3));
}

TEST(SpmmKernels, ViaMatchesGolden)
{
    Rng rng(7);
    Csr a = genUniform(48, 48, 0.08, rng);
    Csr b_csr = genUniform(48, 48, 0.08, rng);
    Csc b = Csc::fromCsr(b_csr);
    Machine m(defaultParams());
    auto res = kernels::spmmViaInner(m, a, b);
    EXPECT_TRUE(closeElements(res.c, mulCsr(a, b_csr), 1e-3));
}

TEST(SpmmKernels, ViaHandlesEmptyRowsAndColumns)
{
    Coo ca(8, 8), cb(8, 8);
    ca.add(1, 2, 2.0f);
    ca.add(6, 7, -1.0f);
    cb.add(2, 3, 4.0f);
    cb.add(7, 0, 5.0f);
    Csr a = Csr::fromCoo(std::move(ca));
    Csr b_csr = Csr::fromCoo(std::move(cb));
    Csc b = Csc::fromCsr(b_csr);
    Machine m(defaultParams());
    auto res = kernels::spmmViaInner(m, a, b);
    EXPECT_TRUE(closeElements(res.c, mulCsr(a, b_csr)));
}

TEST(SpmmKernels, OutputFitsRowsDenserThanColumns)
{
    // A has one entry, at (0, 0); B's row 0 is full. The region
    // sizing min(rows * cols, nnz(A) * max col nnz(B) + 1) gives 2,
    // but the product has 64 entries.
    Coo ca(4, 4), cb(4, 64);
    ca.add(0, 0, 2.0f);
    for (Index c = 0; c < 64; ++c)
        cb.add(0, c, Value(c + 1));
    Csr a = Csr::fromCoo(std::move(ca));
    Csr b_csr = Csr::fromCoo(std::move(cb));
    Csc b = Csc::fromCsr(b_csr);
    Csr golden = mulCsr(a, b_csr);
    ASSERT_EQ(golden.nnz(), 64u);
    EXPECT_EQ(kernels::spmmOutputBound(a, b), 64u);

    Machine m1(defaultParams()), m2(defaultParams());
    EXPECT_TRUE(
        closeElements(kernels::spmmScalarInner(m1, a, b).c, golden));
    EXPECT_TRUE(closeElements(kernels::spmmViaInner(m2, a, b).c, golden));
    MachineParams ssr = defaultParams();
    ssr.backend.kind = BackendKind::Ssr;
    Machine m3(ssr);
    EXPECT_TRUE(closeElements(kernels::spmmSsrInner(m3, a, b).c, golden));
    for (bool via : {false, true}) {
        MultiMachine mm(defaultParams(), 2);
        auto res = kernels::spmmParallel(mm, a, b,
                                         kernels::Partition::Static, via);
        EXPECT_TRUE(closeElements(res.c, golden)) << "via=" << via;
    }
}

TEST(RowOutputDeathTest, OverflowedRegionPanics)
{
    Machine m(defaultParams());
    kernels::RowOutput out(m, 1, 1, 2);
    out.regions[0].used = 3;
    out.rows[0] = {0, 0, 3};
    EXPECT_DEATH(out.collect(m, 4), "region overflowed");
}

TEST(SpmmKernels, ViaBeatsScalarInner)
{
    Rng rng(8);
    Csr a = genUniform(96, 96, 0.06, rng);
    Csr b_csr = genUniform(96, 96, 0.06, rng);
    Csc b = Csc::fromCsr(b_csr);
    Machine m1(defaultParams()), m2(defaultParams());
    auto scalar = kernels::spmmScalarInner(m1, a, b);
    auto viak = kernels::spmmViaInner(m2, a, b);
    EXPECT_LT(viak.cycles, scalar.cycles);
}

} // namespace
} // namespace via
