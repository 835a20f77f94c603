#include "sparse/coo.hh"

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

} // namespace via
