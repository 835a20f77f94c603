/**
 * @file
 * Sell-C-sigma sliced-ELL format (Kreutzer et al.), one of the SpMV
 * baselines in the paper's Figure 10.
 *
 * Rows are sorted by length within windows of sigma rows, grouped
 * into chunks of C rows, and each chunk is padded to its longest row
 * and stored column-major, so a vector unit can process C rows per
 * instruction with unit-stride loads of values/indices (x is still
 * gathered).
 */

#ifndef VIA_SPARSE_SELL_C_SIGMA_HH
#define VIA_SPARSE_SELL_C_SIGMA_HH

#include <vector>

#include "sparse/csr.hh"
#include "sparse/shared_arrays.hh"
#include "sparse/sparse_types.hh"

namespace via
{

/** Sell-C-sigma sparse matrix; arrays immutable, shared on copy. */
class SellCSigma
{
  public:
    SellCSigma() = default;

    /**
     * @param c chunk height (usually the vector length)
     * @param sigma sorting window, a multiple of c
     */
    static SellCSigma fromCsr(const Csr &csr, Index c, Index sigma);

    Index rows() const { return _rows; }
    Index cols() const { return _cols; }
    Index c() const { return _c; }
    Index sigma() const { return _sigma; }
    std::size_t nnz() const { return _nnz; }

    Index numChunks() const;

    /** Offset of a chunk's first entry in colIdx()/values(). */
    const std::vector<Index> &chunkPtr() const { return _a->chunkPtr; }
    /** Padded width (longest row) of each chunk. */
    const std::vector<Index> &chunkWidth() const
    {
        return _a->chunkWidth;
    }
    /** Column indices, chunk-column-major; padding stores 0. */
    const std::vector<Index> &colIdx() const { return _a->colIdx; }
    /** Values, same layout; padding stores 0. */
    const std::vector<Value> &values() const { return _a->values; }
    /** rowPerm[k] = original row of sorted position k. */
    const std::vector<Index> &rowPerm() const { return _a->rowPerm; }

    /** Keeps the arrays alive (see BackingStore::mapArray). */
    std::shared_ptr<const void> storage() const { return _a.owner(); }

    /** Padding overhead: stored slots / nnz. */
    double fillRatio() const;

    /** Host-side golden multiply (for format tests). */
    DenseVector multiply(const DenseVector &x) const;

    void validate() const;

  private:
    struct Arrays
    {
        std::vector<Index> chunkPtr;
        std::vector<Index> chunkWidth;
        std::vector<Index> colIdx;
        std::vector<Value> values;
        std::vector<Index> rowPerm;
    };

    Index _rows = 0;
    Index _cols = 0;
    Index _c = 0;
    Index _sigma = 0;
    std::size_t _nnz = 0;
    SharedArrays<Arrays> _a;
};

} // namespace via

#endif // VIA_SPARSE_SELL_C_SIGMA_HH
