#include "sparse/sell_c_sigma.hh"

#include <algorithm>
#include <numeric>

#include "simcore/log.hh"

namespace via
{

SellCSigma
SellCSigma::fromCsr(const Csr &csr, Index c, Index sigma)
{
    via_assert(c > 0, "chunk height must be positive");
    via_assert(sigma > 0 && sigma % c == 0,
               "sigma (", sigma, ") must be a positive multiple of "
               "C (", c, ")");
    SellCSigma m;
    m._rows = csr.rows();
    m._cols = csr.cols();
    m._c = c;
    m._sigma = sigma;
    m._nnz = csr.nnz();
    Arrays a;

    // Sort rows by descending length inside each sigma window.
    a.rowPerm.resize(std::size_t(m._rows));
    std::iota(a.rowPerm.begin(), a.rowPerm.end(), Index(0));
    for (Index w = 0; w < m._rows; w += sigma) {
        Index hi = std::min<Index>(w + sigma, m._rows);
        std::stable_sort(a.rowPerm.begin() + w,
                         a.rowPerm.begin() + hi,
                         [&](Index lhs, Index rhs) {
                             return csr.rowNnz(lhs) > csr.rowNnz(rhs);
                         });
    }

    Index nchunks = (m._rows + c - 1) / c;
    a.chunkPtr.assign(std::size_t(nchunks) + 1, 0);
    a.chunkWidth.assign(std::size_t(nchunks), 0);

    for (Index ch = 0; ch < nchunks; ++ch) {
        Index width = 0;
        for (Index i = 0; i < c; ++i) {
            Index pos = ch * c + i;
            if (pos < m._rows)
                width = std::max(width,
                                 csr.rowNnz(a.rowPerm[
                                     std::size_t(pos)]));
        }
        a.chunkWidth[std::size_t(ch)] = width;
        a.chunkPtr[std::size_t(ch) + 1] =
            a.chunkPtr[std::size_t(ch)] + width * c;
    }

    auto total = std::size_t(a.chunkPtr.back());
    a.colIdx.assign(total, 0);
    a.values.assign(total, Value(0));

    const auto &row_ptr = csr.rowPtr();
    const auto &col_idx = csr.colIdx();
    const auto &values = csr.values();
    for (Index ch = 0; ch < nchunks; ++ch) {
        Index base = a.chunkPtr[std::size_t(ch)];
        Index width = a.chunkWidth[std::size_t(ch)];
        for (Index i = 0; i < c; ++i) {
            Index pos = ch * c + i;
            if (pos >= m._rows)
                continue;
            Index row = a.rowPerm[std::size_t(pos)];
            Index len = csr.rowNnz(row);
            for (Index j = 0; j < width; ++j) {
                // Column-major inside the chunk: lane i, column j.
                auto slot = std::size_t(base + j * c + i);
                if (j < len) {
                    auto k = std::size_t(
                        row_ptr[std::size_t(row)] + j);
                    a.colIdx[slot] = col_idx[k];
                    a.values[slot] = values[k];
                }
            }
        }
    }
    m._a = SharedArrays(std::move(a));
    m.validate();
    return m;
}

Index
SellCSigma::numChunks() const
{
    return Index(chunkWidth().size());
}

double
SellCSigma::fillRatio() const
{
    return _nnz ? double(chunkPtr().back()) / double(_nnz) : 1.0;
}

DenseVector
SellCSigma::multiply(const DenseVector &x) const
{
    const Arrays &a = *_a;
    via_assert(Index(x.size()) == _cols, "SpMV shape mismatch");
    DenseVector y(std::size_t(_rows), Value(0));
    for (Index ch = 0; ch < numChunks(); ++ch) {
        Index base = a.chunkPtr[std::size_t(ch)];
        Index width = a.chunkWidth[std::size_t(ch)];
        for (Index i = 0; i < _c; ++i) {
            Index pos = ch * _c + i;
            if (pos >= _rows)
                continue;
            double acc = 0.0;
            for (Index j = 0; j < width; ++j) {
                auto slot = std::size_t(base + j * _c + i);
                acc += double(a.values[slot]) *
                       double(x[std::size_t(a.colIdx[slot])]);
            }
            y[std::size_t(a.rowPerm[std::size_t(pos)])] = Value(acc);
        }
    }
    return y;
}

void
SellCSigma::validate() const
{
    const Arrays &a = *_a;
    via_assert(a.colIdx.size() == a.values.size(),
               "col/value length mismatch");
    via_assert(a.chunkPtr.size() == a.chunkWidth.size() + 1,
               "chunk_ptr size mismatch");
    via_assert(std::size_t(a.chunkPtr.back()) == a.colIdx.size(),
               "chunk_ptr end mismatch");
    for (Index c : a.colIdx)
        via_assert(c >= 0 && c < _cols, "column out of range");
    std::vector<bool> seen(std::size_t(_rows), false);
    for (Index r : a.rowPerm) {
        via_assert(r >= 0 && r < _rows, "bad row permutation entry");
        via_assert(!seen[std::size_t(r)],
                   "row permutation repeats row ", r);
        seen[std::size_t(r)] = true;
    }
}

} // namespace via
