#include "sparse/csr.hh"

#include <algorithm>

#include "simcore/log.hh"
#include "simcore/parallel.hh"

namespace via
{

namespace
{

/** Stable in-place insertion sort of one short row by column. */
void
insertionSortRow(Index *cols, Value *vals, std::size_t len)
{
    for (std::size_t i = 1; i < len; ++i) {
        const Index c = cols[i];
        const Value v = vals[i];
        std::size_t j = i;
        for (; j > 0 && cols[j - 1] > c; --j) {
            cols[j] = cols[j - 1];
            vals[j] = vals[j - 1];
        }
        cols[j] = c;
        vals[j] = v;
    }
}

} // namespace

Csr
Csr::fromCoo(Coo coo)
{
    // Count per row, prefix-sum, then place each row's triplets in
    // insertion order through per-row cursors.
    std::vector<Index> row_ptr(std::size_t(coo.rows()) + 1, 0);
    for (const Triplet &t : coo.elems())
        ++row_ptr[std::size_t(t.row) + 1];
    for (std::size_t r = 1; r < row_ptr.size(); ++r)
        row_ptr[r] += row_ptr[r - 1];
    std::vector<Index> next(row_ptr.begin(), row_ptr.end() - 1);
    std::vector<Index> col_idx(coo.nnz());
    std::vector<Value> values(coo.nnz());
    for (const Triplet &t : coo.elems()) {
        const auto slot = std::size_t(next[std::size_t(t.row)]++);
        col_idx[slot] = t.col;
        values[slot] = t.value;
    }
    return fromRows(coo.rows(), coo.cols(), std::move(row_ptr),
                    std::move(col_idx), std::move(values));
}

Csr
Csr::fromParts(Index rows, Index cols, std::vector<Index> row_ptr,
               std::vector<Index> col_idx, std::vector<Value> values)
{
    Csr m;
    m._rows = rows;
    m._cols = cols;
    m._a = SharedArrays(Arrays{std::move(row_ptr), std::move(col_idx),
                               std::move(values)});
    m.validate();
    return m;
}

Csr
Csr::fromRows(Index rows, Index cols, std::vector<Index> row_ptr,
              std::vector<Index> col_idx, std::vector<Value> values)
{
    const unsigned ranges =
        SweepExecutor::workersFor(std::size_t(rows) + values.size());
    return fromRows(rows, cols, std::move(row_ptr), std::move(col_idx),
                    std::move(values), ranges);
}

Csr
Csr::fromRows(Index rows, Index cols, std::vector<Index> row_ptr,
              std::vector<Index> col_idx, std::vector<Value> values,
              unsigned ranges)
{
    via_assert(row_ptr.size() == std::size_t(rows) + 1 &&
                   row_ptr.front() == 0 &&
                   col_idx.size() == values.size(),
               "malformed row arrays");
    via_assert(ranges > 0, "fromRows needs at least one range");
    // Cut the rows into ranges of about equal work, one unit per row
    // and one per entry. The work before row r, row_ptr[r] + r,
    // grows with every row, so a cut may also fall inside a run of
    // empty rows. Each range's first slot is read here, before the
    // fan-out, because the range before it rewrites that entry.
    const auto first_row = cutByWork(
        std::size_t(rows), ranges,
        [&](std::size_t r) { return std::size_t(row_ptr[r]) + r; });
    std::vector<std::size_t> first_slot(ranges);
    for (std::size_t p = 0; p < ranges; ++p)
        first_slot[p] = std::size_t(row_ptr[first_row[p]]);

    // Each range sorts and merges its rows in place from its own first
    // slot, as one serial walk over all rows would: per-row stable
    // sort by column, then an in-place duplicate merge that sums in
    // stored order (exact zeros are kept).
    // Short rows sort in place; longer ones go through
    // std::stable_sort on a pair copy unless already in column order,
    // where a stable sort changes nothing. row_ptr is rewritten to
    // the merged offsets as the walk passes each row.
    constexpr std::size_t insertion_max = 32;
    std::vector<std::size_t> merged(ranges);
    SweepExecutor(ranges).forEach(ranges, [&](std::size_t p) {
        std::vector<std::pair<Index, Value>> tmp;
        std::size_t w = first_slot[p], lo = first_slot[p];
        for (std::size_t r = first_row[p]; r < first_row[p + 1]; ++r) {
            const auto hi = std::size_t(row_ptr[r + 1]);
            if (hi - lo <= insertion_max) {
                insertionSortRow(col_idx.data() + lo,
                                 values.data() + lo, hi - lo);
            } else if (!std::is_sorted(col_idx.begin() +
                                           std::ptrdiff_t(lo),
                                       col_idx.begin() +
                                           std::ptrdiff_t(hi))) {
                tmp.clear();
                for (std::size_t i = lo; i < hi; ++i)
                    tmp.emplace_back(col_idx[i], values[i]);
                std::stable_sort(tmp.begin(), tmp.end(),
                                 [](const auto &x, const auto &y) {
                                     return x.first < y.first;
                                 });
                for (std::size_t i = lo; i < hi; ++i) {
                    col_idx[i] = tmp[i - lo].first;
                    values[i] = tmp[i - lo].second;
                }
            }
            for (std::size_t i = lo; i < hi;) {
                const Index col = col_idx[i];
                Value sum = values[i];
                std::size_t j = i + 1;
                for (; j < hi && col_idx[j] == col; ++j)
                    sum += values[j];
                col_idx[w] = col;
                values[w] = sum;
                ++w;
                i = j;
            }
            row_ptr[r + 1] = Index(w);
            lo = hi;
        }
        merged[p] = w - first_slot[p];
    });

    // Close the gaps the merges left: move each range left to its
    // final offset and shift its row ends by the same distance.
    std::size_t w = 0;
    for (std::size_t p = 0; p < ranges; ++p) {
        const std::size_t from = first_slot[p];
        if (from != w) {
            const auto end = from + merged[p];
            std::copy(col_idx.begin() + std::ptrdiff_t(from),
                      col_idx.begin() + std::ptrdiff_t(end),
                      col_idx.begin() + std::ptrdiff_t(w));
            std::copy(values.begin() + std::ptrdiff_t(from),
                      values.begin() + std::ptrdiff_t(end),
                      values.begin() + std::ptrdiff_t(w));
            const auto shift = Index(from - w);
            for (std::size_t r = first_row[p]; r < first_row[p + 1]; ++r)
                row_ptr[r + 1] -= shift;
        }
        w += merged[p];
    }
    col_idx.resize(w);
    values.resize(w);
    return fromParts(rows, cols, std::move(row_ptr), std::move(col_idx),
                     std::move(values));
}

Index
Csr::rowNnz(Index r) const
{
    via_assert(r >= 0 && r < _rows, "row ", r, " out of range");
    return rowPtr()[std::size_t(r) + 1] - rowPtr()[std::size_t(r)];
}

Index
Csr::maxRowNnz() const
{
    Index best = 0;
    for (Index r = 0; r < _rows; ++r)
        best = std::max(best, rowNnz(r));
    return best;
}

DenseVector
Csr::multiply(const DenseVector &x) const
{
    via_assert(Index(x.size()) == _cols, "SpMV shape mismatch: ",
               _cols, " cols vs vector of ", x.size());
    const Arrays &a = *_a;
    DenseVector y(std::size_t(_rows), Value(0));
    for (Index r = 0; r < _rows; ++r) {
        double acc = 0.0;
        for (Index k = a.rowPtr[std::size_t(r)];
             k < a.rowPtr[std::size_t(r) + 1]; ++k) {
            acc += double(a.values[std::size_t(k)]) *
                   double(x[std::size_t(a.colIdx[std::size_t(k)])]);
        }
        y[std::size_t(r)] = Value(acc);
    }
    return y;
}

Coo
Csr::toCoo() const
{
    const Arrays &a = *_a;
    Coo coo(_rows, _cols);
    for (Index r = 0; r < _rows; ++r)
        for (Index k = a.rowPtr[std::size_t(r)];
             k < a.rowPtr[std::size_t(r) + 1]; ++k)
            coo.add(r, a.colIdx[std::size_t(k)],
                    a.values[std::size_t(k)]);
    return coo;
}

bool
Csr::operator==(const Csr &o) const
{
    return _rows == o._rows && _cols == o._cols &&
           rowPtr() == o.rowPtr() && colIdx() == o.colIdx() &&
           values() == o.values();
}

void
Csr::validate() const
{
    const Arrays &a = *_a;
    via_assert(a.rowPtr.size() == std::size_t(_rows) + 1,
               "row_ptr has ", a.rowPtr.size(), " entries for ",
               _rows, " rows");
    via_assert(a.colIdx.size() == a.values.size(),
               "col_idx / data length mismatch");
    via_assert(a.rowPtr.front() == 0, "row_ptr must start at 0");
    via_assert(std::size_t(a.rowPtr.back()) == a.values.size(),
               "row_ptr end does not match nnz");
    for (std::size_t r = 1; r < a.rowPtr.size(); ++r)
        via_assert(a.rowPtr[r] >= a.rowPtr[r - 1],
                   "row_ptr not monotone at row ", r);

    // With row_ptr monotone, search ranges of rows cut by work (one
    // unit per row and one per entry) side by side for the first bad
    // row, then walk it again with the asserts, so the message is the
    // one a serial walk over all rows stops at.
    const auto r = Index(findFirst(
        std::size_t(_rows),
        [&](std::size_t i) { return std::size_t(a.rowPtr[i]) + i; },
        [&](std::size_t i) {
            Index prev = -1;
            for (auto k = std::size_t(a.rowPtr[i]);
                 k < std::size_t(a.rowPtr[i + 1]); ++k) {
                const Index c = a.colIdx[k];
                if (c <= prev || c >= _cols)
                    return true;
                prev = c;
            }
            return false;
        }));
    if (r == _rows)
        return;
    for (Index k = a.rowPtr[std::size_t(r)];
         k < a.rowPtr[std::size_t(r) + 1]; ++k) {
        Index c = a.colIdx[std::size_t(k)];
        via_assert(c >= 0 && c < _cols, "column ", c,
                   " out of range in row ", r);
        if (k > a.rowPtr[std::size_t(r)])
            via_assert(a.colIdx[std::size_t(k) - 1] < c,
                       "columns not strictly increasing in row ", r);
    }
}

} // namespace via
