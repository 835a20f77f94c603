#include "sparse/csb.hh"

#include <algorithm>
#include <bit>
#include <limits>

#include "simcore/log.hh"

namespace via
{

Csb
Csb::fromCsr(const Csr &csr, Index beta)
{
    via_assert(beta > 0 && (beta & (beta - 1)) == 0,
               "CSB block side must be a power of two, got ", beta);
    Csb m;
    m._rows = csr.rows();
    m._cols = csr.cols();
    m._beta = beta;
    m._colBits = std::uint32_t(std::countr_zero(std::uint32_t(beta)));
    const std::uint32_t shift = m._colBits;
    const Index mask = beta - 1;

    // The largest packed index must fit an Index: at beta = 65536 an
    // in-block row of 32768 or more would wrap.
    if (m._rows > 0 && m._cols > 0) {
        const std::int64_t top_row = std::min(beta, m._rows) - 1;
        const std::int64_t top_col = std::min(beta, m._cols) - 1;
        if (((top_row << shift) | top_col) >
            std::numeric_limits<Index>::max())
            via_fatal("CSB block side ", beta, " cannot pack the "
                      "in-block indices of a ", m._rows, "x", m._cols,
                      " matrix into 32 bits; use a smaller block "
                      "side (a smaller sspm_kb)");
    }

    const Index bcols = m.blockCols();
    const std::size_t nblocks =
        std::size_t(m.blockRows()) * std::size_t(bcols);
    const auto &row_ptr = csr.rowPtr();
    const auto &col_idx = csr.colIdx();
    const auto &values = csr.values();
    auto block_of = [&](Index r, Index c) {
        return std::size_t(r >> shift) * std::size_t(bcols) +
               std::size_t(c >> shift);
    };

    // Count elements per block, prefix-sum, then scatter in CSR
    // order, so each block keeps its elements row-major. The counts
    // become the scatter cursors.
    std::vector<Index> next(nblocks, 0);
    for (Index r = 0; r < m._rows; ++r)
        for (Index k = row_ptr[std::size_t(r)];
             k < row_ptr[std::size_t(r) + 1]; ++k)
            ++next[block_of(r, col_idx[std::size_t(k)])];
    Arrays a;
    a.blockPtr.assign(nblocks + 1, 0);
    for (std::size_t b = 0; b < nblocks; ++b) {
        a.blockPtr[b + 1] = a.blockPtr[b] + next[b];
        next[b] = a.blockPtr[b];
    }

    a.packedIdx.resize(csr.nnz());
    a.values.resize(csr.nnz());
    for (Index r = 0; r < m._rows; ++r) {
        const Index in_row = (r & mask) << shift;
        for (Index k = row_ptr[std::size_t(r)];
             k < row_ptr[std::size_t(r) + 1]; ++k) {
            const Index c = col_idx[std::size_t(k)];
            const auto slot = std::size_t(next[block_of(r, c)]++);
            a.packedIdx[slot] = in_row | (c & mask);
            a.values[slot] = values[std::size_t(k)];
        }
    }
    m._a = SharedArrays(std::move(a));
    m.validate();
    return m;
}

Index
Csb::blockRows() const
{
    return (_rows + _beta - 1) / _beta;
}

Index
Csb::blockCols() const
{
    return (_cols + _beta - 1) / _beta;
}

std::int64_t
Csb::numBlocks() const
{
    return gridBlocks(_rows, _cols, _beta);
}

std::int64_t
Csb::gridBlocks(Index rows, Index cols, Index beta)
{
    // Widen before multiplying: each dimension's block count fits an
    // Index but their product can exceed 2^31 (e.g. 4M rows x 4M
    // cols at beta = 16 is ~6.6e10 blocks).
    std::int64_t brows = (std::int64_t(rows) + beta - 1) / beta;
    std::int64_t bcols = (std::int64_t(cols) + beta - 1) / beta;
    return brows * bcols;
}

std::int64_t
Csb::blockId(Index block_row, Index block_col) const
{
    via_assert(block_row >= 0 && block_row < blockRows() &&
                   block_col >= 0 && block_col < blockCols(),
               "block (", block_row, ",", block_col,
               ") outside grid");
    return std::int64_t(block_row) * blockCols() + block_col;
}

Index
Csb::blockNnz(Index block_row, Index block_col) const
{
    auto b = std::size_t(blockId(block_row, block_col));
    return blockPtr()[b + 1] - blockPtr()[b];
}

double
Csb::blockDensity(Index block_row, Index block_col) const
{
    return double(blockNnz(block_row, block_col)) /
           (double(_beta) * double(_beta));
}

double
Csb::meanNnzPerNonEmptyBlock() const
{
    const auto &block_ptr = blockPtr();
    std::size_t nonempty = 0;
    for (std::size_t b = 0; b + 1 < block_ptr.size(); ++b)
        if (block_ptr[b + 1] > block_ptr[b])
            ++nonempty;
    return nonempty ? double(nnz()) / double(nonempty) : 0.0;
}

void
Csb::validate() const
{
    const Arrays &a = *_a;
    via_assert(a.blockPtr.size() ==
                   std::size_t(numBlocks()) + 1,
               "block_ptr size mismatch");
    via_assert(a.packedIdx.size() == a.values.size(),
               "index / data length mismatch");
    via_assert(std::size_t(a.blockPtr.back()) == a.values.size(),
               "block_ptr end does not match nnz");
    std::int64_t bcols = blockCols();
    for (std::int64_t b = 0; b < numBlocks(); ++b) {
        Index base_row = Index(b / bcols) * _beta;
        Index base_col = Index(b % bcols) * _beta;
        for (Index k = a.blockPtr[std::size_t(b)];
             k < a.blockPtr[std::size_t(b) + 1]; ++k) {
            Index packed = a.packedIdx[std::size_t(k)];
            Index in_col = packed & (_beta - 1);
            Index in_row = packed >> _colBits;
            via_assert(base_row + in_row < _rows &&
                           base_col + in_col < _cols,
                       "packed index escapes the matrix in block ",
                       b);
        }
    }
}

} // namespace via
