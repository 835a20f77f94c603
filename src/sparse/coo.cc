#include "sparse/coo.hh"

#include <algorithm>

#include "simcore/log.hh"

namespace via
{

Coo::Coo(Index rows, Index cols)
    : _rows(rows), _cols(cols)
{
    via_assert(rows >= 0 && cols >= 0, "negative matrix shape");
}

void
Coo::add(Index row, Index col, Value value)
{
    via_assert(row >= 0 && row < _rows && col >= 0 && col < _cols,
               "triplet (", row, ",", col, ") outside ", _rows, "x",
               _cols);
    _elems.push_back(Triplet{row, col, value});
}

void
Coo::canonicalize()
{
    std::sort(_elems.begin(), _elems.end(),
              [](const Triplet &a, const Triplet &b) {
                  return a.row != b.row ? a.row < b.row
                                        : a.col < b.col;
              });
    std::size_t out = 0;
    for (std::size_t i = 0; i < _elems.size();) {
        Triplet merged = _elems[i];
        std::size_t j = i + 1;
        while (j < _elems.size() && _elems[j].row == merged.row &&
               _elems[j].col == merged.col) {
            merged.value += _elems[j].value;
            ++j;
        }
        _elems[out++] = merged;
        i = j;
    }
    _elems.resize(out);
}

bool
Coo::isCanonical() const
{
    for (std::size_t i = 1; i < _elems.size(); ++i) {
        const Triplet &a = _elems[i - 1];
        const Triplet &b = _elems[i];
        if (a.row > b.row ||
            (a.row == b.row && a.col >= b.col))
            return false;
    }
    return true;
}

} // namespace via
