/**
 * @file
 * Unit tests for the sparse formats: construction, accessors,
 * validation, and edge cases (empty matrices, single elements,
 * dense rows).
 */

#include <gtest/gtest.h>

#include "sparse/convert.hh"
#include "sparse/csb.hh"
#include "sparse/csc.hh"
#include "sparse/csr.hh"
#include "sparse/sell_c_sigma.hh"
#include "sparse/spc5.hh"

namespace via
{
namespace
{

Csr
tiny()
{
    // [ 1 0 2 ]
    // [ 0 0 0 ]
    // [ 3 4 0 ]
    Coo coo(3, 3);
    coo.add(0, 0, 1);
    coo.add(0, 2, 2);
    coo.add(2, 0, 3);
    coo.add(2, 1, 4);
    return Csr::fromCoo(std::move(coo));
}

TEST(Coo, CanonicalizeSortsAndMergesDuplicates)
{
    Coo coo(4, 4);
    coo.add(2, 1, 1.0f);
    coo.add(0, 3, 2.0f);
    coo.add(2, 1, 3.0f); // duplicate
    coo.canonicalize();
    ASSERT_EQ(coo.nnz(), 2u);
    EXPECT_TRUE(coo.isCanonical());
    EXPECT_EQ(coo.elems()[0].row, 0);
    EXPECT_FLOAT_EQ(coo.elems()[1].value, 4.0f);
}

TEST(Coo, DensityOfEmptyAndFull)
{
    Coo empty(10, 10);
    EXPECT_DOUBLE_EQ(empty.density(), 0.0);
    Coo one(1, 1);
    one.add(0, 0, 1);
    EXPECT_DOUBLE_EQ(one.density(), 1.0);
}

TEST(CooDeathTest, OutOfRangeTripletPanics)
{
    Coo coo(2, 2);
    EXPECT_DEATH(coo.add(2, 0, 1.0f), "outside");
    EXPECT_DEATH(coo.add(0, -1, 1.0f), "outside");
}

TEST(Csr, BasicAccessors)
{
    Csr m = tiny();
    EXPECT_EQ(m.rows(), 3);
    EXPECT_EQ(m.cols(), 3);
    EXPECT_EQ(m.nnz(), 4u);
    EXPECT_EQ(m.rowNnz(0), 2);
    EXPECT_EQ(m.rowNnz(1), 0);
    EXPECT_EQ(m.maxRowNnz(), 2);
    EXPECT_EQ(m.rowPtr(), (std::vector<Index>{0, 2, 2, 4}));
    EXPECT_EQ(m.colIdx(), (std::vector<Index>{0, 2, 0, 1}));
}

TEST(Csr, MultiplyAgainstDense)
{
    Csr m = tiny();
    DenseVector x{1, 10, 100};
    DenseVector y = m.multiply(x);
    EXPECT_FLOAT_EQ(y[0], 201.0f);
    EXPECT_FLOAT_EQ(y[1], 0.0f);
    EXPECT_FLOAT_EQ(y[2], 43.0f);
}

TEST(Csr, EmptyMatrixIsValid)
{
    Csr m = Csr::fromCoo(Coo(5, 7));
    EXPECT_EQ(m.nnz(), 0u);
    EXPECT_EQ(m.multiply(DenseVector(7, 1.0f)),
              DenseVector(5, 0.0f));
}

TEST(Csr, RoundTripThroughCoo)
{
    Csr m = tiny();
    EXPECT_TRUE(m == Csr::fromCoo(m.toCoo()));
}

TEST(CsrDeathTest, FromPartsValidates)
{
    // Non-monotone row_ptr (end kept consistent with nnz).
    EXPECT_DEATH(Csr::fromParts(2, 2, {0, 3, 2}, {0, 1}, {1, 2}),
                 "monotone|nnz");
    // Unsorted columns in a row.
    EXPECT_DEATH(Csr::fromParts(1, 4, {0, 2}, {2, 1}, {1, 2}),
                 "increasing");
    // Column out of range.
    EXPECT_DEATH(Csr::fromParts(1, 2, {0, 1}, {5}, {1}),
                 "out of range");
}

TEST(Csc, TransposesCorrectly)
{
    Csc m = Csc::fromCsr(tiny());
    EXPECT_EQ(m.colNnz(0), 2);
    EXPECT_EQ(m.colNnz(2), 1);
    EXPECT_EQ(m.maxColNnz(), 2);
    // Round trip back to CSR preserves elements.
    EXPECT_TRUE(cscToCsr(m) == tiny());
}

TEST(Csb, PacksAndUnpacksIndices)
{
    Csr src = tiny();
    Csb m = Csb::fromCsr(src, 2); // 2x2 blocks on a 3x3 matrix
    EXPECT_EQ(m.blockRows(), 2);
    EXPECT_EQ(m.blockCols(), 2);
    EXPECT_EQ(m.numBlocks(), 4);
    EXPECT_EQ(m.nnz(), src.nnz());
    EXPECT_TRUE(csbToCsr(m) == src);
}

TEST(Csb, BlockCountsAndDensity)
{
    Csr src = tiny();
    Csb m = Csb::fromCsr(src, 2);
    // Elements: (0,0) (0,2) (2,0) (2,1) -> blocks (0,0)=1, (0,1)=1,
    // (1,0)=2.
    EXPECT_EQ(m.blockNnz(0, 0), 1);
    EXPECT_EQ(m.blockNnz(0, 1), 1);
    EXPECT_EQ(m.blockNnz(1, 0), 2);
    EXPECT_EQ(m.blockNnz(1, 1), 0);
    EXPECT_DOUBLE_EQ(m.blockDensity(1, 0), 0.5);
    EXPECT_DOUBLE_EQ(m.meanNnzPerNonEmptyBlock(), 4.0 / 3.0);
}

TEST(CsbDeathTest, BlockSideMustBePowerOfTwo)
{
    EXPECT_DEATH(Csb::fromCsr(tiny(), 3), "power of two");
}

/** An n x n matrix with one element, at (n - 1, 5). */
Csr
lastRowOnly(Index n)
{
    std::vector<Index> row_ptr(std::size_t(n) + 1, 0);
    row_ptr.back() = 1;
    return Csr::fromParts(n, n, std::move(row_ptr), {5}, {1.0f});
}

TEST(CsbDeathTest, PackedIndexOverflowIsFatal)
{
    // beta = 65536 (sspm_kb=512) packs (row % beta) << 16 into an
    // Index: in-block row 39999 would wrap to a negative index that
    // still passes validate(). Refuse the shape instead.
    const Csr m = lastRowOnly(40000);
    EXPECT_EXIT(Csb::fromCsr(m, 65536), ::testing::ExitedWithCode(1),
                "block side 65536 cannot pack.*40000x40000.*sspm_kb");
}

TEST(Csb, PackedIndexFitsUpTo32768RowsAtBeta65536)
{
    const Csr m = lastRowOnly(32768);
    const Csb csb = Csb::fromCsr(m, 65536);
    EXPECT_EQ(csb.packedIdx().at(0), (32767 << 16) | 5);
    EXPECT_TRUE(csbToCsr(csb) == m);
}

TEST(Csb, GridBlockCountDoesNotOverflow32Bits)
{
    // A 4M x 4M matrix tiled at beta = 16 has 250'000^2 = 6.25e10
    // blocks: each per-dimension count fits an Index but the product
    // wraps a 32-bit multiply. The grid math must widen first.
    const Index rows = 4'000'000, cols = 4'000'000, beta = 16;
    EXPECT_EQ(Csb::gridBlocks(rows, cols, beta), 62'500'000'000ll);
    // Ragged edge: the per-dimension counts still round up.
    EXPECT_EQ(Csb::gridBlocks(17, 17, 16), 4);
    EXPECT_EQ(Csb::gridBlocks(16, 16, 16), 1);
}

TEST(SellCSigma, LayoutAndMultiply)
{
    Csr src = tiny();
    SellCSigma m = SellCSigma::fromCsr(src, 2, 2);
    EXPECT_EQ(m.numChunks(), 2);
    // Sorting within the first window of 2 puts row 0 (2 nnz) first.
    EXPECT_EQ(m.rowPerm()[0], 0);
    EXPECT_GE(m.fillRatio(), 1.0);
    DenseVector x{1, 10, 100};
    EXPECT_EQ(m.multiply(x), src.multiply(x));
}

TEST(SellCSigma, PaddingIsBounded)
{
    // Uniform rows: no padding at all.
    Coo coo(8, 8);
    for (Index r = 0; r < 8; ++r)
        coo.add(r, r, 1.0f);
    SellCSigma m = SellCSigma::fromCsr(
        Csr::fromCoo(std::move(coo)), 4, 8);
    EXPECT_DOUBLE_EQ(m.fillRatio(), 1.0);
}

TEST(SellCSigmaDeathTest, SigmaMustBeMultipleOfC)
{
    EXPECT_DEATH(SellCSigma::fromCsr(tiny(), 4, 6), "multiple");
}

TEST(Spc5, BlocksAnchorAtFirstColumn)
{
    Csr src = tiny();
    Spc5 m = Spc5::fromCsr(src, 8);
    // Rows 0 and 2 each fit one window.
    EXPECT_EQ(m.numBlocks(), 2u);
    EXPECT_EQ(m.blockRow()[0], 0);
    EXPECT_EQ(m.blockMask()[0], 0b101u); // cols 0 and 2
    EXPECT_EQ(m.blockMask()[1], 0b11u);  // cols 0 and 1
    EXPECT_DOUBLE_EQ(m.meanBlockFill(), 2.0);
}

TEST(Spc5, WideRowsSplitIntoWindows)
{
    Coo coo(1, 64);
    for (Index c = 0; c < 64; c += 4)
        coo.add(0, c, Value(c));
    Spc5 m = Spc5::fromCsr(Csr::fromCoo(std::move(coo)), 8);
    EXPECT_EQ(m.numBlocks(), 8u); // 2 nnz per 8-wide window
    DenseVector x(64, 1.0f);
    auto y = m.multiply(x);
    EXPECT_FLOAT_EQ(y[0], 0 + 4 + 8 + 12 + 16 + 20 + 24 + 28 + 32 +
                              36 + 40 + 44 + 48 + 52 + 56 + 60);
}

TEST(Convert, AddCsrMergesElements)
{
    Csr a = tiny();
    Csr c = addCsr(a, a);
    EXPECT_EQ(c.nnz(), a.nnz());
    EXPECT_FLOAT_EQ(c.values()[0], 2.0f);
}

TEST(Convert, MulCsrMatchesDense)
{
    Csr a = tiny();
    Csr c = mulCsr(a, a);
    // Dense check: A*A for the tiny matrix.
    // A = [[1,0,2],[0,0,0],[3,4,0]]
    // A*A = [[1+6, 8, 2],[0,0,0],[3, 0, 6]]
    DenseVector e1{1, 0, 0};
    auto col0 = c.multiply(e1);
    EXPECT_FLOAT_EQ(col0[0], 7.0f);
    EXPECT_FLOAT_EQ(col0[2], 3.0f);
    EXPECT_EQ(c.rowNnz(1), 0);
}

TEST(Convert, TransposeOfRectangularMatrix)
{
    // [ 1 0 2 0 0 ]
    // [ 0 0 0 0 0 ]  row 1 and columns 1 and 4 are empty
    // [ 3 0 0 4 0 ]
    Csr a = Csr::fromParts(3, 5, {0, 2, 2, 4}, {0, 2, 0, 3},
                           {1, 2, 3, 4});
    Csr t = transpose(a);
    EXPECT_EQ(t.rows(), 5);
    EXPECT_EQ(t.cols(), 3);
    EXPECT_EQ(t.rowPtr(), (std::vector<Index>{0, 2, 2, 3, 4, 4}));
    EXPECT_EQ(t.colIdx(), (std::vector<Index>{0, 2, 0, 2}));
    EXPECT_EQ(t.values(), (std::vector<Value>{1, 3, 2, 4}));
    EXPECT_TRUE(transpose(t) == a);

    // A^T in CSC holds A's CSR arrays (the SpMM B operand).
    Csc b = Csc::fromCsr(t);
    EXPECT_EQ(b.colPtr(), a.rowPtr());
    EXPECT_EQ(b.rowIdx(), a.colIdx());
    EXPECT_EQ(b.values(), a.values());
}

TEST(Convert, CloseElementsDetectsStructureMismatch)
{
    Csr a = tiny();
    Coo coo = a.toCoo();
    coo.elems()[0].value += 1.0f;
    Csr b = Csr::fromCoo(std::move(coo));
    EXPECT_FALSE(closeElements(a, b, 1e-6));
    EXPECT_TRUE(closeElements(a, b, 2.0));
    EXPECT_FALSE(closeElements(a, Csr::fromCoo(Coo(3, 3))));
}

} // namespace
} // namespace via
