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
#include "sparse/shared_arrays.hh"
#include "sparse/sparse_types.hh"

namespace via
{

/** CSR sparse matrix; its arrays are immutable and shared on copy. */
class Csr
{
  public:
    Csr() = default;

    /**
     * Build from triplets in any order, with repeated coordinates
     * allowed: each row's triplets are placed in insertion order and
     * go through fromRows, so repeated coordinates sum in the order
     * they were added.
     */
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
     * std::stable_sort beyond unless the row is in column order
     * already) and equal columns are summed in their stored order;
     * exact zeros are kept. The arrays are compacted in place, with
     * no triplet copy and no global sort. Large inputs are cut into
     * ranges of rows, one per CPU this process may run on and at
     * most one per 2^16 rows plus entries, which threads
     * canonicalize side by side.
     */
    static Csr fromRows(Index rows, Index cols,
                        std::vector<Index> row_ptr,
                        std::vector<Index> col_idx,
                        std::vector<Value> values);

    /** fromRows over @p ranges row ranges (tests): same result. */
    static Csr fromRows(Index rows, Index cols,
                        std::vector<Index> row_ptr,
                        std::vector<Index> col_idx,
                        std::vector<Value> values, unsigned ranges);

    Index rows() const { return _rows; }
    Index cols() const { return _cols; }
    std::size_t nnz() const { return values().size(); }

    const std::vector<Index> &rowPtr() const { return _a->rowPtr; }
    const std::vector<Index> &colIdx() const { return _a->colIdx; }
    const std::vector<Value> &values() const { return _a->values; }

    /** Keeps the arrays alive (see BackingStore::mapArray). */
    std::shared_ptr<const void> storage() const { return _a.owner(); }

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

    /**
     * Consistency of the three arrays; panics on violation. Once
     * row_ptr is checked, rows are checked in ranges side by side,
     * and the message names the lowest bad row.
     */
    void validate() const;

  private:
    struct Arrays
    {
        std::vector<Index> rowPtr;
        std::vector<Index> colIdx;
        std::vector<Value> values;
    };

    Index _rows = 0;
    Index _cols = 0;
    SharedArrays<Arrays> _a;
};

} // namespace via

#endif // VIA_SPARSE_CSR_HH
