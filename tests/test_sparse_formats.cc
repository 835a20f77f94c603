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

TEST(Csr, FromCooSortsAndMergesDuplicates)
{
    Coo coo(4, 4);
    coo.add(2, 1, 1.0f);
    coo.add(0, 3, 2.0f);
    coo.add(2, 1, 3.0f); // duplicate
    Csr m = Csr::fromCoo(std::move(coo));
    EXPECT_EQ(m.rowPtr(), (std::vector<Index>{0, 1, 1, 2, 2}));
    EXPECT_EQ(m.colIdx(), (std::vector<Index>{3, 1}));
    EXPECT_EQ(m.values(), (std::vector<Value>{2.0f, 4.0f}));
}

TEST(Csr, FromCooSumsDuplicatesInInsertionOrder)
{
    // 1e8 - 1e8 + 1 is 1 in insertion order; 1e8 + 1 rounds to 1e8
    // in float, so an order that adds 1 before -1e8 gives 0. Fourteen
    // more rows, added from the last up, make a list that a sort of
    // all the triplets reorders: libstdc++'s std::sort sums the three
    // to 0 here, and so does placing a row's triplets in reverse.
    Coo coo(18, 1);
    coo.add(0, 0, 1e8f);
    coo.add(0, 0, -1e8f);
    coo.add(0, 0, 1.0f);
    for (Index r = 17; r >= 4; --r)
        coo.add(r, 0, 1.0f);
    Csr m = Csr::fromCoo(std::move(coo));
    ASSERT_EQ(m.nnz(), 15u);
    EXPECT_EQ(m.values()[0], 1.0f);
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

TEST(ValidateDeathTest, CsrNamesTheLowestBadRow)
{
    // 200,000 rows of one entry each are checked in ranges side by
    // side on a host with two or more CPUs; rows 10 and 150,000 hold
    // a column past the last, and the message names row 10.
    const Index n = 200'000;
    const auto rows = std::size_t(n);
    std::vector<Index> row_ptr(rows + 1), col_idx(rows);
    for (Index r = 0; r < n; ++r) {
        row_ptr[std::size_t(r) + 1] = r + 1;
        col_idx[std::size_t(r)] = r == 10 || r == 150'000 ? n : r;
    }
    EXPECT_DEATH(Csr::fromParts(n, n, row_ptr, col_idx,
                                std::vector<Value>(rows, 1.0f)),
                 "column 200000 out of range in row 10\n");
}

TEST(CsrFromRows, RangesMatchOneRange)
{
    // Unsorted rows with repeated columns (summed in stored order),
    // two unsorted rows longer than the 32-entry insertion-sort
    // cutoff, a longer one already in column order with repeated
    // columns (no sort), and runs of empty rows: at 2 to 5 ranges a
    // cut falls inside the 40 empty rows 7..46.
    const Index rows = 60, cols = 40;
    std::vector<Index> row_ptr{0}, col_idx;
    std::vector<Value> values;
    auto add = [&](Index c, Value v) {
        col_idx.push_back(c);
        values.push_back(v);
    };
    for (Index r = 0; r < rows; ++r) {
        if (r == 5) {
            add(3, 1.0f);
            add(1, 2.0f);
            add(3, 0.5f);
            add(0, -1.0f);
        }
        if (r == 6 || r == 48)
            for (Index i = 0; i < (r == 6 ? 45 : 70); ++i)
                add((i * 17) % cols, Value(i) * 0.25f);
        if (r == 47)
            for (int i = 0; i < 3; ++i)
                add(7, 1.0f);
        if (r == 50)
            for (Index i = 0; i < 40; ++i)
                add(i / 2, Value(i) * 0.5f);
        if (r == 59)
            add(2, 4.0f);
        row_ptr.push_back(Index(col_idx.size()));
    }
    const Csr one =
        Csr::fromRows(rows, cols, row_ptr, col_idx, values, 1);
    EXPECT_EQ(one.nnz(), 3u + 40u + 1u + 40u + 20u + 1u);
    EXPECT_EQ(one.colIdx()[2], 3);
    EXPECT_EQ(one.values()[2], 1.5f);
    const auto col3 = std::size_t(one.rowPtr()[50]) + 3;
    EXPECT_EQ(one.colIdx()[col3], 3);
    EXPECT_EQ(one.values()[col3], 6.5f);
    for (unsigned ranges = 2; ranges <= 5; ++ranges)
        EXPECT_EQ(Csr::fromRows(rows, cols, row_ptr, col_idx, values,
                                ranges),
                  one)
            << ranges << " ranges";
}

TEST(CsrFromRowsDeathTest, RowPtrMustEndAtTheEntryCount)
{
    // Three entries, but row_ptr ends at 1: the compaction would drop
    // two of them before validate() saw the arrays.
    EXPECT_DEATH(Csr::fromRows(2, 4, {0, 1, 1}, {0, 1, 2}, {1, 2, 3}),
                 "row_ptr end does not match nnz");
    EXPECT_DEATH(Csr::fromRows(2, 4, {0, 1, 1}, {0, 1, 2}, {1, 2, 3}, 2),
                 "row_ptr end does not match nnz");
}

TEST(CsrFromRowsDeathTest, RowPtrMustNeverDecrease)
{
    // The ranges are cut by a binary search over row_ptr, and row 0
    // would walk past the two entries.
    EXPECT_DEATH(Csr::fromRows(2, 4, {0, 3, 2}, {0, 1}, {1, 2}),
                 "row_ptr not monotone at row 2");
    EXPECT_DEATH(Csr::fromRows(2, 4, {0, 3, 2}, {0, 1}, {1, 2}, 2),
                 "row_ptr not monotone at row 2");
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
    // Index: in-block row 39999 would wrap to a negative index.
    // Refuse the shape instead.
    const Csr m = lastRowOnly(40000);
    EXPECT_EXIT(Csb::fromCsr(m, 65536), ::testing::ExitedWithCode(1),
                "block side 65536 cannot pack.*40000x40000.*sspm_kb");
}

TEST(ValidateDeathTest, CsbNamesTheLowestBadBlock)
{
    // 200,000^2 at beta 512 is a 391 x 391 grid. Each block holds one
    // entry, at its top left; blocks 390 and 150,143, in the last
    // block column (columns 199,680..199,999), hold one at in-block
    // column 400, past the matrix. The blocks are checked in ranges
    // side by side, and the message names block 390.
    const Index n = 200'000, beta = 512;
    const std::size_t blocks = 391 * 391;
    std::vector<Index> block_ptr(blocks + 1), packed_idx(blocks, 0);
    for (std::size_t b = 0; b <= blocks; ++b)
        block_ptr[b] = Index(b);
    packed_idx[390] = packed_idx[150'143] = 400;
    EXPECT_DEATH(Csb::fromParts(n, n, beta, block_ptr, packed_idx,
                                std::vector<Value>(blocks, 1.0f)),
                 "escapes block 390 or the matrix");
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
