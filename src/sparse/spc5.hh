/**
 * @file
 * SPC5-like masked row-block format (Bramas & Kus), the second SpMV
 * baseline of Figure 10.
 *
 * Each block covers one row and a window of VL consecutive columns;
 * a bitmask says which columns inside the window are present and the
 * values are packed without zero padding. The vectorized kernel
 * loads x[firstCol .. firstCol+VL) unit-stride, expands the packed
 * values by the mask, and FMAs — no gather on x.
 */

#ifndef VIA_SPARSE_SPC5_HH
#define VIA_SPARSE_SPC5_HH

#include <cstdint>
#include <vector>

#include "sparse/csr.hh"
#include "sparse/shared_arrays.hh"
#include "sparse/sparse_types.hh"

namespace via
{

/** beta(1, VL) SPC5-style matrix; arrays immutable, shared on copy. */
class Spc5
{
  public:
    Spc5() = default;

    /**
     * @param window block width in columns (the vector length)
     */
    static Spc5 fromCsr(const Csr &csr, Index window);

    Index rows() const { return _rows; }
    Index cols() const { return _cols; }
    Index window() const { return _window; }
    std::size_t nnz() const { return values().size(); }
    std::size_t numBlocks() const { return blockRow().size(); }

    /** Row of each block (blocks sorted by row, then column). */
    const std::vector<Index> &blockRow() const { return _a->blockRow; }
    /** First column of each block's window. */
    const std::vector<Index> &blockCol() const { return _a->blockCol; }
    /** Presence mask over the window's columns. */
    const std::vector<std::uint32_t> &blockMask() const
    {
        return _a->blockMask;
    }
    /** Offset of each block's packed values (numBlocks+1). */
    const std::vector<Index> &blockPtr() const { return _a->blockPtr; }
    const std::vector<Value> &values() const { return _a->values; }

    /** Keeps the arrays alive (see BackingStore::mapArray). */
    std::shared_ptr<const void> storage() const { return _a.owner(); }

    /** Mean packed values per block (vector utilization proxy). */
    double meanBlockFill() const;

    /** Host-side golden multiply. */
    DenseVector multiply(const DenseVector &x) const;

    void validate() const;

  private:
    struct Arrays
    {
        std::vector<Index> blockRow;
        std::vector<Index> blockCol;
        std::vector<std::uint32_t> blockMask;
        std::vector<Index> blockPtr;
        std::vector<Value> values;
    };

    Index _rows = 0;
    Index _cols = 0;
    Index _window = 0;
    SharedArrays<Arrays> _a;
};

} // namespace via

#endif // VIA_SPARSE_SPC5_HH
