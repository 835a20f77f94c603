#include "sparse/csr.hh"

#include <algorithm>

#include "simcore/log.hh"

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
    coo.canonicalize();
    Csr m;
    m._rows = coo.rows();
    m._cols = coo.cols();
    m._rowPtr.assign(std::size_t(coo.rows()) + 1, 0);
    m._colIdx.reserve(coo.nnz());
    m._values.reserve(coo.nnz());

    for (const Triplet &t : coo.elems()) {
        ++m._rowPtr[std::size_t(t.row) + 1];
        m._colIdx.push_back(t.col);
        m._values.push_back(t.value);
    }
    for (std::size_t r = 1; r < m._rowPtr.size(); ++r)
        m._rowPtr[r] += m._rowPtr[r - 1];
    m.validate();
    return m;
}

Csr
Csr::fromParts(Index rows, Index cols, std::vector<Index> row_ptr,
               std::vector<Index> col_idx, std::vector<Value> values)
{
    Csr m;
    m._rows = rows;
    m._cols = cols;
    m._rowPtr = std::move(row_ptr);
    m._colIdx = std::move(col_idx);
    m._values = std::move(values);
    m.validate();
    return m;
}

Csr
Csr::fromRows(Index rows, Index cols, std::vector<Index> row_ptr,
              std::vector<Index> col_idx, std::vector<Value> values)
{
    via_assert(row_ptr.size() == std::size_t(rows) + 1 &&
                   row_ptr.front() == 0 &&
                   col_idx.size() == values.size(),
               "malformed row arrays");
    // Per-row stable sort by column, then an in-place duplicate
    // merge that sums in stored order (exact zeros are kept, as in
    // Coo::canonicalize). Short rows sort in place; longer ones go
    // through std::stable_sort on a pair copy. row_ptr is rewritten
    // to the merged offsets as the walk passes each row.
    constexpr std::size_t insertion_max = 32;
    std::vector<std::pair<Index, Value>> tmp;
    std::size_t w = 0, lo = 0;
    for (Index r = 0; r < rows; ++r) {
        const auto hi = std::size_t(row_ptr[std::size_t(r) + 1]);
        if (hi - lo <= insertion_max) {
            insertionSortRow(col_idx.data() + lo, values.data() + lo,
                             hi - lo);
        } else {
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
        row_ptr[std::size_t(r) + 1] = Index(w);
        lo = hi;
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
    return _rowPtr[std::size_t(r) + 1] - _rowPtr[std::size_t(r)];
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
    DenseVector y(std::size_t(_rows), Value(0));
    for (Index r = 0; r < _rows; ++r) {
        double acc = 0.0;
        for (Index k = _rowPtr[std::size_t(r)];
             k < _rowPtr[std::size_t(r) + 1]; ++k) {
            acc += double(_values[std::size_t(k)]) *
                   double(x[std::size_t(_colIdx[std::size_t(k)])]);
        }
        y[std::size_t(r)] = Value(acc);
    }
    return y;
}

Coo
Csr::toCoo() const
{
    Coo coo(_rows, _cols);
    for (Index r = 0; r < _rows; ++r)
        for (Index k = _rowPtr[std::size_t(r)];
             k < _rowPtr[std::size_t(r) + 1]; ++k)
            coo.add(r, _colIdx[std::size_t(k)],
                    _values[std::size_t(k)]);
    return coo;
}

bool
Csr::operator==(const Csr &o) const
{
    return _rows == o._rows && _cols == o._cols &&
           _rowPtr == o._rowPtr && _colIdx == o._colIdx &&
           _values == o._values;
}

void
Csr::validate() const
{
    via_assert(_rowPtr.size() == std::size_t(_rows) + 1,
               "row_ptr has ", _rowPtr.size(), " entries for ",
               _rows, " rows");
    via_assert(_colIdx.size() == _values.size(),
               "col_idx / data length mismatch");
    via_assert(_rowPtr.front() == 0, "row_ptr must start at 0");
    via_assert(std::size_t(_rowPtr.back()) == _values.size(),
               "row_ptr end does not match nnz");
    for (std::size_t r = 1; r < _rowPtr.size(); ++r)
        via_assert(_rowPtr[r] >= _rowPtr[r - 1],
                   "row_ptr not monotone at row ", r);
    for (Index r = 0; r < _rows; ++r) {
        for (Index k = _rowPtr[std::size_t(r)];
             k < _rowPtr[std::size_t(r) + 1]; ++k) {
            Index c = _colIdx[std::size_t(k)];
            via_assert(c >= 0 && c < _cols, "column ", c,
                       " out of range in row ", r);
            if (k > _rowPtr[std::size_t(r)])
                via_assert(_colIdx[std::size_t(k) - 1] < c,
                           "columns not strictly increasing in row ",
                           r);
        }
    }
}

} // namespace via
