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
#include "sparse/sparse_types.hh"

namespace via
{

/** CSC sparse matrix. */
class Csc
{
  public:
    Csc() = default;

    static Csc fromCoo(Coo coo);

    /** Column-compress an existing CSR matrix (same element set). */
    static Csc fromCsr(const Csr &csr);

    Index rows() const { return _rows; }
    Index cols() const { return _cols; }
    std::size_t nnz() const { return _values.size(); }

    const std::vector<Index> &colPtr() const { return _colPtr; }
    const std::vector<Index> &rowIdx() const { return _rowIdx; }
    const std::vector<Value> &values() const { return _values; }

    Index colNnz(Index c) const;
    Index maxColNnz() const;

    void validate() const;

  private:
    Index _rows = 0;
    Index _cols = 0;
    std::vector<Index> _colPtr;
    std::vector<Index> _rowIdx;
    std::vector<Value> _values;
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
