#include "sparse/csc.hh"

#include <algorithm>

#include "simcore/log.hh"

namespace via
{

void
transposeCompressed(Index inner, const std::vector<Index> &ptr,
                    const std::vector<Index> &idx,
                    const std::vector<Value> &val,
                    std::vector<Index> &t_ptr, std::vector<Index> &t_idx,
                    std::vector<Value> &t_val)
{
    // Count per inner index, prefix-sum, then scatter the lines in
    // order through per-index cursors.
    t_ptr.assign(std::size_t(inner) + 1, 0);
    for (Index i : idx)
        ++t_ptr[std::size_t(i) + 1];
    for (std::size_t i = 1; i < t_ptr.size(); ++i)
        t_ptr[i] += t_ptr[i - 1];
    std::vector<Index> next(t_ptr.begin(), t_ptr.end() - 1);
    t_idx.resize(idx.size());
    t_val.resize(val.size());
    for (std::size_t line = 0; line + 1 < ptr.size(); ++line) {
        for (Index k = ptr[line]; k < ptr[line + 1]; ++k) {
            const auto slot =
                std::size_t(next[std::size_t(idx[std::size_t(k)])]++);
            t_idx[slot] = Index(line);
            t_val[slot] = val[std::size_t(k)];
        }
    }
}

Csc
Csc::fromCoo(Coo coo)
{
    // Canonical CSC order is column-major: sort by (col, row).
    std::sort(coo.elems().begin(), coo.elems().end(),
              [](const Triplet &a, const Triplet &b) {
                  return a.col != b.col ? a.col < b.col
                                        : a.row < b.row;
              });
    Csc m;
    m._rows = coo.rows();
    m._cols = coo.cols();
    m._colPtr.assign(std::size_t(coo.cols()) + 1, 0);
    m._rowIdx.reserve(coo.nnz());
    m._values.reserve(coo.nnz());
    for (const Triplet &t : coo.elems()) {
        ++m._colPtr[std::size_t(t.col) + 1];
        m._rowIdx.push_back(t.row);
        m._values.push_back(t.value);
    }
    for (std::size_t c = 1; c < m._colPtr.size(); ++c)
        m._colPtr[c] += m._colPtr[c - 1];
    m.validate();
    return m;
}

Csc
Csc::fromCsr(const Csr &csr)
{
    Csc m;
    m._rows = csr.rows();
    m._cols = csr.cols();
    transposeCompressed(csr.cols(), csr.rowPtr(), csr.colIdx(),
                        csr.values(), m._colPtr, m._rowIdx, m._values);
    m.validate();
    return m;
}

Index
Csc::colNnz(Index c) const
{
    via_assert(c >= 0 && c < _cols, "column ", c, " out of range");
    return _colPtr[std::size_t(c) + 1] - _colPtr[std::size_t(c)];
}

Index
Csc::maxColNnz() const
{
    Index best = 0;
    for (Index c = 0; c < _cols; ++c)
        best = std::max(best, colNnz(c));
    return best;
}

void
Csc::validate() const
{
    via_assert(_colPtr.size() == std::size_t(_cols) + 1,
               "col_ptr has ", _colPtr.size(), " entries for ",
               _cols, " cols");
    via_assert(_rowIdx.size() == _values.size(),
               "row_idx / data length mismatch");
    via_assert(_colPtr.front() == 0, "col_ptr must start at 0");
    via_assert(std::size_t(_colPtr.back()) == _values.size(),
               "col_ptr end does not match nnz");
    for (Index c = 0; c < _cols; ++c) {
        for (Index k = _colPtr[std::size_t(c)];
             k < _colPtr[std::size_t(c) + 1]; ++k) {
            Index r = _rowIdx[std::size_t(k)];
            via_assert(r >= 0 && r < _rows, "row ", r,
                       " out of range in column ", c);
            if (k > _colPtr[std::size_t(c)])
                via_assert(_rowIdx[std::size_t(k) - 1] < r,
                           "rows not strictly increasing in col ",
                           c);
        }
    }
}

} // namespace via
