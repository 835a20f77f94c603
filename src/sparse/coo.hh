/**
 * @file
 * Coordinate-list (triplet) sparse matrix: entries appended in any
 * order, with repeated coordinates allowed, for Csr::fromCoo to
 * compress. The blocked and diagonal-heavy generators, the fuzzer's
 * mutations, the harnesses' sibling matrices and the examples build
 * through it; the other generators and the .mtx reader fill CSR rows
 * directly.
 */

#ifndef VIA_SPARSE_COO_HH
#define VIA_SPARSE_COO_HH

#include <vector>

#include "sparse/sparse_types.hh"

namespace via
{

/** One non-zero element. */
struct Triplet
{
    Index row = 0;
    Index col = 0;
    Value value = 0;
};

/** Triplet-form sparse matrix. */
class Coo
{
  public:
    Coo() = default;
    Coo(Index rows, Index cols);

    Index rows() const { return _rows; }
    Index cols() const { return _cols; }
    std::size_t nnz() const { return _elems.size(); }

    /** Append one element (bounds-checked). */
    void add(Index row, Index col, Value value);

    const std::vector<Triplet> &elems() const { return _elems; }
    std::vector<Triplet> &elems() { return _elems; }

  private:
    Index _rows = 0;
    Index _cols = 0;
    std::vector<Triplet> _elems;
};

} // namespace via

#endif // VIA_SPARSE_COO_HH
