/**
 * @file
 * Compressed Sparse Row format (paper Figure 1.a).
 *
 * Three arrays: row_ptr (rows+1 entries), col_idx and data (nnz
 * entries each). The reference format for SpMV/SpMA/SpMM baselines.
 */

#ifndef VIA_SPARSE_CSR_HH
#define VIA_SPARSE_CSR_HH

#include <vector>

#include "sparse/coo.hh"
#include "sparse/dense.hh"
#include "sparse/sparse_types.hh"

namespace via
{

/** CSR sparse matrix. */
class Csr
{
  public:
    Csr() = default;

    /** Build from (possibly unsorted, duplicated) triplets. */
    static Csr fromCoo(Coo coo);

    /** Build directly from raw arrays (validated). */
    static Csr fromParts(Index rows, Index cols,
                         std::vector<Index> row_ptr,
                         std::vector<Index> col_idx,
                         std::vector<Value> values);

    /**
     * Build from rows in any column order, with repeated columns
     * allowed: @p row_ptr delimits each row's entries. Each row is
     * stably sorted by column (insertion sort up to 32 entries,
     * std::stable_sort beyond) and equal columns are summed in their
     * stored order; exact zeros are kept. The arrays are compacted
     * in place, with no triplet copy and no global sort.
     */
    static Csr fromRows(Index rows, Index cols,
                        std::vector<Index> row_ptr,
                        std::vector<Index> col_idx,
                        std::vector<Value> values);

    Index rows() const { return _rows; }
    Index cols() const { return _cols; }
    std::size_t nnz() const { return _values.size(); }

    const std::vector<Index> &rowPtr() const { return _rowPtr; }
    const std::vector<Index> &colIdx() const { return _colIdx; }
    const std::vector<Value> &values() const { return _values; }

    /** Number of non-zeros in one row. */
    Index rowNnz(Index r) const;

    /** Longest row in the matrix. */
    Index maxRowNnz() const;

    /** y = A x (host-side golden kernel, double accumulation). */
    DenseVector multiply(const DenseVector &x) const;

    /** Back to triplets (canonical order). */
    Coo toCoo() const;

    /** Structural + value equality. */
    bool operator==(const Csr &o) const;

    /** Consistency of the three arrays; panics on violation. */
    void validate() const;

  private:
    Index _rows = 0;
    Index _cols = 0;
    std::vector<Index> _rowPtr;
    std::vector<Index> _colIdx;
    std::vector<Value> _values;
};

} // namespace via

#endif // VIA_SPARSE_CSR_HH
