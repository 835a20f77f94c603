/**
 * @file
 * Compressed Sparse Block format (paper Figure 1.b/1.d; Buluc et
 * al.). The matrix is tiled into beta x beta blocks; each non-zero
 * stores a single merged in-block index (row << colBits | col) plus
 * its value, and block_ptr delimits the elements of each block in
 * block-row-major order.
 *
 * The VIA CSB SpMV kernel tunes beta so that one block's column
 * range (input vector chunk) plus its row range (output accumulator
 * chunk) fill the SSPM — beta = sramEntries / 2 (Section V-B).
 */

#ifndef VIA_SPARSE_CSB_HH
#define VIA_SPARSE_CSB_HH

#include <cstdint>
#include <vector>

#include "sparse/csr.hh"
#include "sparse/sparse_types.hh"

namespace via
{

/** CSB sparse matrix with merged in-block indices. */
class Csb
{
  public:
    Csb() = default;

    /**
     * Tile @p csr into beta x beta blocks, elements row-major inside
     * each block. Fatal if the largest packed in-block index does
     * not fit an Index (at beta = 65536, 32768 rows or more).
     * @param beta block side; must be a power of two
     */
    static Csb fromCsr(const Csr &csr, Index beta);

    Index rows() const { return _rows; }
    Index cols() const { return _cols; }
    Index beta() const { return _beta; }
    std::size_t nnz() const { return _values.size(); }

    /** Bits used for the column part of a packed index. */
    std::uint32_t colBits() const { return _colBits; }

    Index blockRows() const; //!< blocks per column of the grid
    Index blockCols() const; //!< blocks per row of the grid

    /**
     * Blocks in the grid. 64-bit: a million-row matrix with a small
     * beta has blockRows * blockCols > 2^31 even though every
     * per-dimension count still fits an Index.
     */
    std::int64_t numBlocks() const;

    /**
     * Grid size for a (rows, cols, beta) shape without building the
     * matrix — the overflow-prone product in one testable place.
     */
    static std::int64_t gridBlocks(Index rows, Index cols, Index beta);

    const std::vector<Index> &blockPtr() const { return _blockPtr; }
    const std::vector<Index> &packedIdx() const { return _packedIdx; }
    const std::vector<Value> &values() const { return _values; }

    /** Elements in block (block_row, block_col). */
    Index blockNnz(Index block_row, Index block_col) const;

    /** Linear block id of (block_row, block_col). */
    std::int64_t blockId(Index block_row, Index block_col) const;

    /** Density of a block: nnz / beta^2. */
    double blockDensity(Index block_row, Index block_col) const;

    /** Mean non-zeros over non-empty blocks (Fig 10's x-axis). */
    double meanNnzPerNonEmptyBlock() const;

    void validate() const;

  private:
    Index _rows = 0;
    Index _cols = 0;
    Index _beta = 0;
    std::uint32_t _colBits = 0;
    std::vector<Index> _blockPtr;
    std::vector<Index> _packedIdx;
    std::vector<Value> _values;
};

} // namespace via

#endif // VIA_SPARSE_CSB_HH
