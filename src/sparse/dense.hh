/**
 * @file
 * Dense vector/matrix helpers used by kernels and tests.
 */

#ifndef VIA_SPARSE_DENSE_HH
#define VIA_SPARSE_DENSE_HH

#include <cstddef>
#include <vector>

#include "sparse/sparse_types.hh"

namespace via
{

class Rng;

/** A dense vector of Values. */
using DenseVector = std::vector<Value>;

/** Row-major dense matrix. */
class DenseMatrix
{
  public:
    DenseMatrix() = default;
    DenseMatrix(Index rows, Index cols);

    Index rows() const { return _rows; }
    Index cols() const { return _cols; }

    Value &at(Index r, Index c);
    Value at(Index r, Index c) const;

    const std::vector<Value> &data() const { return _data; }
    std::vector<Value> &data() { return _data; }

  private:
    Index _rows = 0;
    Index _cols = 0;
    std::vector<Value> _data;
};

/** Uniform random vector in [-1, 1). */
DenseVector randomVector(Index n, Rng &rng);

/**
 * Approximate equality with mixed absolute/relative tolerance,
 * suitable for float32 accumulations of different orders.
 */
bool allClose(const DenseVector &a, const DenseVector &b,
              double rtol = 1e-4, double atol = 1e-5);

} // namespace via

#endif // VIA_SPARSE_DENSE_HH
