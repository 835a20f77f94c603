#include "sparse/spc5.hh"

#include <bit>

#include "simcore/log.hh"

namespace via
{

Spc5
Spc5::fromCsr(const Csr &csr, Index window)
{
    via_assert(window > 0 && window <= 32,
               "SPC5 window must be in [1, 32], got ", window);
    Spc5 m;
    m._rows = csr.rows();
    m._cols = csr.cols();
    m._window = window;
    Arrays a;
    a.blockPtr.push_back(0);

    const auto &row_ptr = csr.rowPtr();
    const auto &col_idx = csr.colIdx();
    const auto &values = csr.values();

    for (Index r = 0; r < m._rows; ++r) {
        Index k = row_ptr[std::size_t(r)];
        Index end = row_ptr[std::size_t(r) + 1];
        while (k < end) {
            // A new block anchored at this element's column.
            Index first = col_idx[std::size_t(k)];
            std::uint32_t mask = 0;
            Index packed = 0;
            while (k < end &&
                   col_idx[std::size_t(k)] < first + window) {
                mask |= 1u << (col_idx[std::size_t(k)] - first);
                a.values.push_back(values[std::size_t(k)]);
                ++packed;
                ++k;
            }
            a.blockRow.push_back(r);
            a.blockCol.push_back(first);
            a.blockMask.push_back(mask);
            a.blockPtr.push_back(a.blockPtr.back() + packed);
        }
    }
    m._a = SharedArrays(std::move(a));
    m.validate();
    return m;
}

double
Spc5::meanBlockFill() const
{
    return numBlocks() ? double(nnz()) / double(numBlocks()) : 0.0;
}

DenseVector
Spc5::multiply(const DenseVector &x) const
{
    const Arrays &a = *_a;
    via_assert(Index(x.size()) == _cols, "SpMV shape mismatch");
    DenseVector y(std::size_t(_rows), Value(0));
    for (std::size_t b = 0; b < numBlocks(); ++b) {
        double acc = 0.0;
        Index v = a.blockPtr[b];
        for (Index off = 0; off < _window; ++off) {
            if (a.blockMask[b] & (1u << off)) {
                acc += double(a.values[std::size_t(v++)]) *
                       double(x[std::size_t(a.blockCol[b] + off)]);
            }
        }
        y[std::size_t(a.blockRow[b])] += Value(acc);
    }
    return y;
}

void
Spc5::validate() const
{
    const Arrays &a = *_a;
    via_assert(a.blockRow.size() == a.blockCol.size() &&
                   a.blockRow.size() == a.blockMask.size(),
               "block array length mismatch");
    via_assert(a.blockPtr.size() == a.blockRow.size() + 1,
               "block_ptr size mismatch");
    via_assert(std::size_t(a.blockPtr.back()) == a.values.size(),
               "block_ptr end does not match packed values");
    for (std::size_t b = 0; b < numBlocks(); ++b) {
        via_assert(a.blockMask[b] != 0, "empty block ", b);
        via_assert(std::popcount(a.blockMask[b]) ==
                       a.blockPtr[b + 1] - a.blockPtr[b],
                   "mask popcount does not match packed count in "
                   "block ", b);
        via_assert(a.blockCol[b] >= 0 &&
                       a.blockCol[b] < _cols,
                   "block column out of range");
        via_assert((a.blockMask[b] & 1u) != 0,
                   "block ", b, " mask must anchor at its first "
                   "column");
    }
}

} // namespace via
