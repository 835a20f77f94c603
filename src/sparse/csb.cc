#include "sparse/csb.hh"

#include <algorithm>
#include <bit>
#include <limits>

#include "simcore/log.hh"
#include "simcore/parallel.hh"

namespace via
{

Csb
Csb::shaped(Index rows, Index cols, Index beta)
{
    via_assert(beta > 0 && (beta & (beta - 1)) == 0,
               "CSB block side must be a power of two, got ", beta);
    Csb m;
    m._rows = rows;
    m._cols = cols;
    m._beta = beta;
    m._colBits = std::uint32_t(std::countr_zero(std::uint32_t(beta)));

    // The largest packed index must fit an Index: at beta = 65536 an
    // in-block row of 32768 or more would wrap.
    if (rows > 0 && cols > 0) {
        const std::int64_t top_row = std::min(beta, rows) - 1;
        const std::int64_t top_col = std::min(beta, cols) - 1;
        if (((top_row << m._colBits) | top_col) >
            std::numeric_limits<Index>::max())
            via_fatal("CSB block side ", beta, " cannot pack the "
                      "in-block indices of a ", rows, "x", cols,
                      " matrix into 32 bits; use a smaller block "
                      "side (a smaller sspm_kb)");
    }
    return m;
}

Csb
Csb::fromCsr(const Csr &csr, Index beta)
{
    return fromCsr(csr, beta,
                   SweepExecutor::workersFor(std::size_t(csr.rows()) +
                                             csr.nnz()));
}

Csb
Csb::fromCsr(const Csr &csr, Index beta, unsigned ranges)
{
    via_assert(ranges > 0, "fromCsr needs at least one range");
    const Csb m = shaped(csr.rows(), csr.cols(), beta);
    const std::uint32_t shift = m._colBits;
    const Index mask = beta - 1;
    const auto rows = std::size_t(m._rows);
    const auto brows = std::size_t(m.blockRows());
    const auto bcols = std::size_t(m.blockCols());
    const auto &row_ptr = csr.rowPtr();
    const auto &col_idx = csr.colIdx();
    const auto &values = csr.values();

    // Cut the block rows into ranges of about equal work, one unit
    // per row and one per entry, as Csr::fromRows cuts rows. A block
    // row's blocks are contiguous in block-row-major order, so the
    // ranges share no block and no output slot.
    const auto parts = unsigned(std::clamp<std::size_t>(brows, 1, ranges));
    auto first_row = [&](std::size_t br) {
        return std::min(br << shift, rows);
    };
    const auto first = cutByWork(brows, parts, [&](std::size_t br) {
        const std::size_t r = first_row(br);
        return std::size_t(row_ptr[r]) + r;
    });

    // Count elements per block, prefix-sum, then scatter in CSR
    // order, so each block keeps its elements row-major. The counts
    // become the scatter cursors. Each range counts and scatters its
    // own rows; beside the count, two jobs size the output arrays,
    // whose zero-fill is most of a serial conversion's time.
    std::vector<Index> next(brows * bcols, 0);
    Arrays a;
    const SweepExecutor pool(parts);
    pool.forEach(std::size_t(parts) + 2, [&](std::size_t job) {
        if (job == 0) {
            a.packedIdx.resize(csr.nnz());
        } else if (job == 1) {
            a.values.resize(csr.nnz());
        } else {
            const std::size_t p = job - 2;
            for (std::size_t r = first_row(first[p]);
                 r < first_row(first[p + 1]); ++r) {
                Index *count = next.data() + (r >> shift) * bcols;
                for (auto k = std::size_t(row_ptr[r]);
                     k < std::size_t(row_ptr[r + 1]); ++k)
                    ++count[col_idx[k] >> shift];
            }
        }
    });
    a.blockPtr.assign(next.size() + 1, 0);
    for (std::size_t b = 0; b < next.size(); ++b) {
        a.blockPtr[b + 1] = a.blockPtr[b] + next[b];
        next[b] = a.blockPtr[b];
    }
    pool.forEach(parts, [&](std::size_t p) {
        for (std::size_t r = first_row(first[p]);
             r < first_row(first[p + 1]); ++r) {
            Index *cursor = next.data() + (r >> shift) * bcols;
            const Index in_row = (Index(r) & mask) << shift;
            for (auto k = std::size_t(row_ptr[r]);
                 k < std::size_t(row_ptr[r + 1]); ++k) {
                const Index c = col_idx[k];
                const auto slot = std::size_t(cursor[c >> shift]++);
                a.packedIdx[slot] = in_row | (c & mask);
                a.values[slot] = values[k];
            }
        }
    });
    return fromParts(m._rows, m._cols, beta, std::move(a.blockPtr),
                     std::move(a.packedIdx), std::move(a.values));
}

Csb
Csb::fromParts(Index rows, Index cols, Index beta,
               std::vector<Index> block_ptr,
               std::vector<Index> packed_idx, std::vector<Value> values)
{
    Csb m = shaped(rows, cols, beta);
    m._a = SharedArrays(Arrays{std::move(block_ptr),
                               std::move(packed_idx), std::move(values)});
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
    const auto blocks = std::size_t(numBlocks());
    via_assert(a.blockPtr.size() == blocks + 1,
               "block_ptr size mismatch");
    via_assert(a.packedIdx.size() == a.values.size(),
               "index / data length mismatch");
    via_assert(a.blockPtr.front() == 0, "block_ptr must start at 0");
    via_assert(std::size_t(a.blockPtr.back()) == a.values.size(),
               "block_ptr end does not match nnz");
    for (std::size_t b = 1; b < a.blockPtr.size(); ++b)
        via_assert(a.blockPtr[b] >= a.blockPtr[b - 1],
                   "block_ptr not monotone at block ", b);

    // With block_ptr monotone, search ranges of blocks cut by work
    // (one unit per block and one per entry) side by side for the
    // first block with a packed index outside its extent, clipped to
    // the matrix, as a serial walk would.
    const auto bcols = std::size_t(blockCols());
    const std::size_t b = findFirst(
        blocks,
        [&](std::size_t i) { return std::size_t(a.blockPtr[i]) + i; },
        [&](std::size_t i) {
            const auto row_end = Index(std::min<std::int64_t>(
                _beta, _rows - std::int64_t(i / bcols) * _beta));
            const auto col_end = Index(std::min<std::int64_t>(
                _beta, _cols - std::int64_t(i % bcols) * _beta));
            for (auto k = std::size_t(a.blockPtr[i]);
                 k < std::size_t(a.blockPtr[i + 1]); ++k) {
                const Index packed = a.packedIdx[k];
                if (packed < 0 || (packed >> _colBits) >= row_end ||
                    (packed & (_beta - 1)) >= col_end)
                    return true;
            }
            return false;
        });
    if (b < blocks)
        via_panic("packed index escapes block ", b, " or the matrix");
}

} // namespace via
