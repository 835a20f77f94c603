/**
 * @file
 * Compressed Sparse Column format (paper Figure 1.c) — CSR's
 * transpose-friendly sibling, used as the B operand of the
 * inner-product SpMM kernel (Algorithm 3).
 */

#ifndef VIA_SPARSE_CSC_HH
#define VIA_SPARSE_CSC_HH

#include <vector>

#include "sparse/coo.hh"
#include "sparse/csr.hh"
#include "sparse/shared_arrays.hh"
#include "sparse/sparse_types.hh"

namespace via
{

/** CSC sparse matrix; its arrays are immutable and shared on copy. */
class Csc
{
  public:
    Csc() = default;

    static Csc fromCoo(Coo coo);

    /** Column-compress an existing CSR matrix (same element set). */
    static Csc fromCsr(const Csr &csr);

    Index rows() const { return _rows; }
    Index cols() const { return _cols; }
    std::size_t nnz() const { return values().size(); }

    const std::vector<Index> &colPtr() const { return _a->colPtr; }
    const std::vector<Index> &rowIdx() const { return _a->rowIdx; }
    const std::vector<Value> &values() const { return _a->values; }

    /** Keeps the arrays alive (see BackingStore::mapArray). */
    std::shared_ptr<const void> storage() const { return _a.owner(); }

    Index colNnz(Index c) const;
    Index maxColNnz() const;

    void validate() const;

  private:
    struct Arrays
    {
        std::vector<Index> colPtr;
        std::vector<Index> rowIdx;
        std::vector<Value> values;
    };

    Index _rows = 0;
    Index _cols = 0;
    SharedArrays<Arrays> _a;
};

/**
 * Counting-sort transpose of compressed arrays: @p ptr delimits the
 * (idx, val) entries of each line (a CSR row or a CSC column), with
 * every idx in [0, @p inner). The t_ arrays regroup the entries by
 * idx, each group in line order, so sorted lines give sorted
 * groups. CSR -> CSC and CSC -> CSR are both this.
 */
void transposeCompressed(Index inner, const std::vector<Index> &ptr,
                         const std::vector<Index> &idx,
                         const std::vector<Value> &val,
                         std::vector<Index> &t_ptr,
                         std::vector<Index> &t_idx,
                         std::vector<Value> &t_val);

} // namespace via

#endif // VIA_SPARSE_CSC_HH
