#include "sparse/dense.hh"

#include <algorithm>
#include <cmath>

#include "simcore/log.hh"
#include "simcore/rng.hh"

namespace via
{

DenseMatrix::DenseMatrix(Index rows, Index cols)
    : _rows(rows), _cols(cols),
      _data(std::size_t(rows) * std::size_t(cols), Value(0))
{
    via_assert(rows >= 0 && cols >= 0, "negative matrix shape");
}

Value &
DenseMatrix::at(Index r, Index c)
{
    via_assert(r >= 0 && r < _rows && c >= 0 && c < _cols,
               "dense index (", r, ",", c, ") out of range");
    return _data[std::size_t(r) * std::size_t(_cols)
                 + std::size_t(c)];
}

Value
DenseMatrix::at(Index r, Index c) const
{
    return const_cast<DenseMatrix *>(this)->at(r, c);
}

DenseVector
randomVector(Index n, Rng &rng)
{
    DenseVector v(static_cast<std::size_t>(n));
    for (auto &x : v)
        x = Value(rng.uniform() * 2.0 - 1.0);
    return v;
}

bool
allClose(const DenseVector &a, const DenseVector &b, double rtol,
         double atol)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        double x = a[i], y = b[i];
        if (std::abs(x - y) > atol + rtol * std::max(std::abs(x),
                                                     std::abs(y)))
            return false;
    }
    return true;
}

} // namespace via
