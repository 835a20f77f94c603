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
    Arrays a;
    a.colPtr.assign(std::size_t(coo.cols()) + 1, 0);
    a.rowIdx.reserve(coo.nnz());
    a.values.reserve(coo.nnz());
    for (const Triplet &t : coo.elems()) {
        ++a.colPtr[std::size_t(t.col) + 1];
        a.rowIdx.push_back(t.row);
        a.values.push_back(t.value);
    }
    for (std::size_t c = 1; c < a.colPtr.size(); ++c)
        a.colPtr[c] += a.colPtr[c - 1];
    m._a = SharedArrays(std::move(a));
    m.validate();
    return m;
}

Csc
Csc::fromCsr(const Csr &csr)
{
    Csc m;
    m._rows = csr.rows();
    m._cols = csr.cols();
    Arrays a;
    transposeCompressed(csr.cols(), csr.rowPtr(), csr.colIdx(),
                        csr.values(), a.colPtr, a.rowIdx, a.values);
    m._a = SharedArrays(std::move(a));
    m.validate();
    return m;
}

Index
Csc::colNnz(Index c) const
{
    via_assert(c >= 0 && c < _cols, "column ", c, " out of range");
    return colPtr()[std::size_t(c) + 1] - colPtr()[std::size_t(c)];
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
    const Arrays &a = *_a;
    via_assert(a.colPtr.size() == std::size_t(_cols) + 1,
               "col_ptr has ", a.colPtr.size(), " entries for ",
               _cols, " cols");
    via_assert(a.rowIdx.size() == a.values.size(),
               "row_idx / data length mismatch");
    via_assert(a.colPtr.front() == 0, "col_ptr must start at 0");
    via_assert(std::size_t(a.colPtr.back()) == a.values.size(),
               "col_ptr end does not match nnz");
    for (Index c = 0; c < _cols; ++c) {
        for (Index k = a.colPtr[std::size_t(c)];
             k < a.colPtr[std::size_t(c) + 1]; ++k) {
            Index r = a.rowIdx[std::size_t(k)];
            via_assert(r >= 0 && r < _rows, "row ", r,
                       " out of range in column ", c);
            if (k > a.colPtr[std::size_t(c)])
                via_assert(a.rowIdx[std::size_t(k) - 1] < r,
                           "rows not strictly increasing in col ",
                           c);
        }
    }
}

} // namespace via
