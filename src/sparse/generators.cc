#include "sparse/generators.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

#include "simcore/log.hh"
#include "simcore/parallel.hh"
#include "sparse/coo.hh"

namespace via
{

namespace
{

Value
randValue(Rng &rng)
{
    return Value(rng.uniform() * 2.0 - 1.0);
}

/**
 * The RMAT recursive descent (a=0.57, b=c=0.19, d=0.05), one
 * quadrant per level from the top bit down, without data-dependent
 * branches. uniform() is k * 2^-53 for the raw 53-bit draw k, and
 * the cumulative thresholds a, a+b and a+b+c are doubles in
 * [0.5, 1), hence multiples of 2^-53: comparing k against them
 * scaled by 2^53 decides exactly as `uniform() < p` does. The same
 * draws therefore make the same choices as a per-level if/else
 * chain, and the Rng ends in the same state.
 */
class RmatDescent
{
  public:
    explicit RmatDescent(Index n)
    {
        via_assert(n > 0 && (n & (n - 1)) == 0,
                   "RMAT needs a power-of-two size, got ", n);
        _levels = std::countr_zero(std::uint32_t(n));
        const double a = 0.57, b = 0.19, c = 0.19;
        _a = scaled(a);
        _ab = scaled(a + b);
        _abc = scaled(a + b + c);
    }

    /** Draw one edge. */
    void
    edge(Rng &rng, Index &row, Index &col) const
    {
        std::uint32_t r = 0, c = 0;
        for (int l = 0; l < _levels; ++l) {
            const std::uint64_t k = rng.next() >> 11;
            const auto ge_a = std::uint32_t(k >= _a);
            const auto ge_ab = std::uint32_t(k >= _ab);
            const auto ge_abc = std::uint32_t(k >= _abc);
            // q = ge_a + ge_ab + ge_abc is the quadrant: 0 top-left,
            // 1 top-right, 2 bottom-left, 3 bottom-right. The row
            // bit is q >= 2 and the col bit is q odd.
            r = (r << 1) | ge_ab;
            c = (c << 1) | (ge_a ^ ge_ab ^ ge_abc);
        }
        row = Index(r);
        col = Index(c);
    }

    /** Draw one edge's row only, consuming the same draws as edge(). */
    Index
    row(Rng &rng) const
    {
        std::uint32_t r = 0;
        for (int l = 0; l < _levels; ++l)
            r = (r << 1) | std::uint32_t((rng.next() >> 11) >= _ab);
        return Index(r);
    }

    /**
     * Draws per edge: one per level, then the value, which the place
     * pass draws with randValue() and the count pass skips with one
     * next(). Edge e thus owns draws [draws() e, draws() (e + 1)),
     * and a segment starting at edge e starts there.
     */
    std::uint64_t draws() const { return std::uint64_t(_levels) + 1; }

  private:
    static std::uint64_t
    scaled(double p)
    {
        constexpr double two53 = 9007199254740992.0;
        const auto t = std::uint64_t(p * two53);
        via_assert(double(t) / two53 == p, "RMAT threshold ", p,
                   " is not a multiple of 2^-53");
        return t;
    }

    int _levels = 0;
    std::uint64_t _a = 0, _ab = 0, _abc = 0;
};

} // namespace

Csr
genUniform(Index rows, Index cols, double density, Rng &rng)
{
    via_assert(rows > 0 && cols > 0, "bad shape");
    via_assert(density >= 0.0 && density <= 1.0, "bad density ",
               density);
    double total = double(rows) * double(cols);
    auto target = std::size_t(total * density);
    if (target > std::size_t(std::numeric_limits<Index>::max()))
        via_fatal("uniform target of ", target, " entries exceeds "
                  "the 32-bit simulated index type (at most ",
                  std::numeric_limits<Index>::max(), ")");
    Coo coo(rows, cols);
    if (density == 0.0)
        return Csr::fromCoo(std::move(coo));
    // Sample nnz positions without materializing the dense grid:
    // geometric skipping over the linearized index space.
    double skip_mean = total / double(std::max<std::size_t>(target,
                                                            1));
    double pos = 0.0;
    while (true) {
        // Exponential gap with mean skip_mean.
        double u = std::max(rng.uniform(), 1e-12);
        pos += -std::log(u) * skip_mean;
        if (pos >= total)
            break;
        auto linear = std::uint64_t(pos);
        coo.add(Index(linear / std::uint64_t(cols)),
                Index(linear % std::uint64_t(cols)),
                randValue(rng));
    }
    // Positions arrive in row-major order, but two draws can land on
    // the same position, and Coo::canonicalize sums those in
    // std::sort's unstable order. That order fixes the values this
    // generator has always produced, so it stays on Coo: building
    // the rows directly (Csr::fromRows) sums in draw order, which at
    // 16384^2 and 0.5% density gives the same structure but
    // different values for 6 of seeds 1-20.
    return Csr::fromCoo(std::move(coo));
}

Csr
genBandedCsr(Index n, Index bandwidth, double fill, Rng &rng)
{
    via_assert(n > 0 && bandwidth >= 0, "bad band parameters");
    std::vector<Index> row_ptr(std::size_t(n) + 1, 0);
    std::vector<Index> col_idx;
    std::vector<Value> values;
    // The band walk visits (r, c) in row-major order and never
    // repeats a position, so entries land CSR-sorted as drawn.
    for (Index r = 0; r < n; ++r) {
        Index lo = std::max<Index>(0, r - bandwidth);
        Index hi = std::min<Index>(n - 1, r + bandwidth);
        for (Index c = lo; c <= hi; ++c) {
            if (c == r || rng.chance(fill)) {
                col_idx.push_back(c);
                values.push_back(randValue(rng));
            }
        }
        row_ptr[std::size_t(r) + 1] = Index(col_idx.size());
    }
    return Csr::fromParts(n, n, std::move(row_ptr),
                          std::move(col_idx), std::move(values));
}

Csr
genRmatCsr(Index n, std::size_t nnz_target, Rng &rng)
{
    // Each segment keeps one n-entry cursor array, so at most
    // 2 ceil(nnz / n) segments keep them within about the output
    // arrays' 8 bytes per entry.
    const std::size_t per_row =
        n > 0 ? (nnz_target + std::size_t(n) - 1) / std::size_t(n) : 1;
    const auto segments = std::max<std::size_t>(
        1, std::min<std::size_t>(SweepExecutor::workersFor(nnz_target),
                                 2 * per_row));
    return genRmatCsr(n, nnz_target, rng, unsigned(segments));
}

Csr
genRmatCsr(Index n, std::size_t nnz_target, Rng &rng, unsigned segments)
{
    if (nnz_target > std::size_t(std::numeric_limits<Index>::max()))
        via_fatal("RMAT target of ", nnz_target, " edges exceeds "
                  "the 32-bit simulated index type (at most ",
                  std::numeric_limits<Index>::max(), ")");
    via_assert(segments > 0, "RMAT needs at least one segment");
    const RmatDescent descent(n);
    // Allocated first, both before either is filled, so a target the
    // host cannot hold fails at once; all of it is live in the place
    // pass anyway.
    std::vector<Index> col_idx;
    std::vector<Value> values;
    col_idx.reserve(nnz_target);
    values.reserve(nnz_target);
    col_idx.resize(nnz_target);
    values.resize(nnz_target);

    // Segment k draws edges [first(k), first(k + 1)) from its own
    // copy of the stream, jumped ahead to the first of them, and
    // counts and places them through its own cursors: cursor[k][r + 1]
    // belongs to row r. Both passes draw a block of edges before
    // counting or placing them, so the block's scattered row accesses
    // are independent and their cache misses overlap.
    auto first = [&](std::size_t k) { return nnz_target * k / segments; };
    std::vector<Rng> at(segments, rng);
    std::vector<std::vector<Index>> cursor(segments);
    const SweepExecutor pool(segments);
    constexpr std::size_t block = 512;

    // Pass 1: count each segment's edges per row. Only the row is
    // computed; the value draw is skipped with one next().
    pool.forEach(segments, [&](std::size_t k) {
        at[k].discard(descent.draws() * first(k));
        std::vector<Index> &rows_of = cursor[k];
        rows_of.assign(std::size_t(n) + 1, 0);
        Rng probe = at[k];
        Index rows[block]{};
        for (std::size_t e0 = first(k); e0 < first(k + 1); e0 += block) {
            const std::size_t m = std::min(block, first(k + 1) - e0);
            for (std::size_t i = 0; i < m; ++i) {
                rows[i] = descent.row(probe);
                probe.next();
            }
            for (std::size_t i = 0; i < m; ++i)
                ++rows_of[std::size_t(rows[i]) + 1];
        }
    });

    // Row r's segment of the output holds segment 0's edges, then
    // segment 1's, and so on: draw order within every row.
    Index base = 0;
    for (std::size_t r = 1; r <= std::size_t(n); ++r) {
        for (std::vector<Index> &rows_of : cursor) {
            const Index c = rows_of[r];
            rows_of[r] = base;
            base += c;
        }
    }

    // Pass 2: each segment redraws its edges and places them.
    pool.forEach(segments, [&](std::size_t k) {
        Rng &draw = at[k];
        std::vector<Index> &next = cursor[k];
        Index rows[block]{}, cols[block]{};
        Value vals[block]{};
        for (std::size_t e0 = first(k); e0 < first(k + 1); e0 += block) {
            const std::size_t m = std::min(block, first(k + 1) - e0);
            for (std::size_t i = 0; i < m; ++i) {
                descent.edge(draw, rows[i], cols[i]);
                vals[i] = randValue(draw);
            }
            for (std::size_t i = 0; i < m; ++i) {
                const auto slot =
                    std::size_t(next[std::size_t(rows[i]) + 1]++);
                col_idx[slot] = cols[i];
                values[slot] = vals[i];
            }
        }
    });

    // The last segment ends where the whole stream does, and its
    // cursors at the row ends: they are row_ptr.
    rng = at.back();
    std::vector<Index> row_ptr = std::move(cursor.back());
    cursor.clear();
    // Duplicate edges sum in draw order.
    return Csr::fromRows(n, n, std::move(row_ptr), std::move(col_idx),
                         std::move(values));
}

Csr
genBlocked(Index n, Index block_side, double block_fill,
           double inner_fill, Rng &rng)
{
    via_assert(block_side > 0 && block_side <= n,
               "bad block side ", block_side);
    Coo coo(n, n);
    Index grid = (n + block_side - 1) / block_side;
    for (Index br = 0; br < grid; ++br) {
        for (Index bc = 0; bc < grid; ++bc) {
            // Keep the diagonal blocks so no row is empty-ish.
            if (br != bc && !rng.chance(block_fill))
                continue;
            Index rlo = br * block_side;
            Index clo = bc * block_side;
            Index rhi = std::min(rlo + block_side, n);
            Index chi = std::min(clo + block_side, n);
            for (Index r = rlo; r < rhi; ++r)
                for (Index c = clo; c < chi; ++c)
                    if (rng.chance(inner_fill))
                        coo.add(r, c, randValue(rng));
        }
    }
    return Csr::fromCoo(std::move(coo));
}

Csr
genDiagHeavy(Index n, double off_diag, Rng &rng)
{
    via_assert(n > 0, "bad size");
    Coo coo(n, n);
    for (Index r = 0; r < n; ++r) {
        coo.add(r, r, Value(2.0 + rng.uniform()));
        // Poisson(off_diag) off-diagonal entries via thinning.
        auto extras = std::size_t(off_diag);
        if (rng.chance(off_diag - double(extras)))
            ++extras;
        for (std::size_t e = 0; e < extras; ++e) {
            auto c = Index(rng.below(std::uint64_t(n)));
            if (c != r)
                coo.add(r, c, randValue(rng));
        }
    }
    coo.canonicalize();
    return Csr::fromCoo(std::move(coo));
}

} // namespace via
