#include "sparse/generators.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <memory>

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

/** The uniform generator's entry target, after checking its inputs. */
std::size_t
uniformTarget(Index rows, Index cols, double density)
{
    via_assert(rows > 0 && cols > 0, "bad shape");
    via_assert(density >= 0.0 && density <= 1.0, "bad density ",
               density);
    const auto target = std::size_t(double(rows) * double(cols) * density);
    if (target > std::size_t(std::numeric_limits<Index>::max()))
        via_fatal("uniform target of ", target, " entries exceeds "
                  "the 32-bit simulated index type (at most ",
                  std::numeric_limits<Index>::max(), ")");
    return target;
}

} // namespace

Csr
genUniform(Index rows, Index cols, double density, Rng &rng)
{
    return genUniform(
        rows, cols, density, rng,
        SweepExecutor::workersFor(uniformTarget(rows, cols, density)));
}

Csr
genUniform(Index rows, Index cols, double density, Rng &rng,
           unsigned segments)
{
    const std::size_t target = uniformTarget(rows, cols, density);
    via_assert(segments > 0, "uniform generation needs a segment");
    if (density == 0.0)
        return Csr::fromParts(rows, cols,
                              std::vector<Index>(std::size_t(rows) + 1),
                              {}, {});
    // Sample positions without materializing the dense grid:
    // exponential gaps with mean skip_mean over the linearized index
    // space. Iteration i draws its gap's u (draw 2i) and, if the gap
    // sum stays below total, its value (draw 2i + 1), so n entries
    // leave the stream 2n + 1 draws on.
    const double total = double(rows) * double(cols);
    const double skip_mean =
        total / double(std::max<std::size_t>(target, 1));
    const auto ucols = std::uint64_t(cols);

    // The entry count is Poisson about the target, so it lies within
    // 8 standard deviations of it but for about once in 10^15 inputs.
    // Draws up to the upper bound are reserved before any is written,
    // so a target the host cannot hold fails at once. The output
    // arrays are written only up to the lower bound until the count
    // is known, so their unused tail stays out of memory. buf holds
    // each draw's gap, then its position: 16 bytes per draw in all.
    const auto margin = std::size_t(8.0 * std::sqrt(double(target)));
    const std::size_t fewest = target - std::min(target, margin);
    std::size_t want = target + margin + 64;
    auto buf = std::make_unique_for_overwrite<std::uint64_t[]>(want);
    std::vector<Index> row_ptr, col_idx;
    std::vector<Value> values;
    col_idx.reserve(want);
    values.reserve(want);
    row_ptr.reserve(std::size_t(rows) + 1);

    // The stream state at every mark-th iteration's first draw, and
    // the stream at any iteration's first draw (2i) from there.
    constexpr std::size_t mark = 256;
    std::vector<Rng> marks;
    auto streamAt = [&](std::size_t i) {
        Rng at = marks[i / mark];
        for (std::size_t d = 0; d < 2 * (i % mark); ++d)
            at.next();
        return at;
    };

    // Pass 1: segment k draws its share of iterations [drawn, want)
    // from a copy of the stream jumped to its first draw (none for
    // the first segment): each gap, and the marks. Pass 2 sums the
    // gaps in draw order on one thread, exactly the additions of one
    // serial loop, and turns each sum below total into an integer
    // position. With more than one segment, the pool zero-fills the
    // output arrays up to the lower bound beside it. When the upper
    // bound falls short, both passes run again on a longer stretch.
    const SweepExecutor pool(segments);
    std::size_t drawn = 0, n = 0;
    double pos = 0.0;
    for (;;) {
        marks.resize((want + mark - 1) / mark);
        pool.forEach(segments, [&](std::size_t k) {
            const std::size_t lo = drawn + (want - drawn) * k / segments;
            const std::size_t hi =
                drawn + (want - drawn) * (k + 1) / segments;
            Rng draw = rng;
            if (lo > 0)
                draw.discard(2 * std::uint64_t(lo));
            for (std::size_t i = lo; i < hi; ++i) {
                if (i % mark == 0)
                    marks[i / mark] = draw;
                const double u = std::max(draw.uniform(), 1e-12);
                buf[i] = std::bit_cast<std::uint64_t>(-std::log(u) *
                                                      skip_mean);
                draw.next(); // the value, drawn again in pass 3
            }
        });
        pool.forEach(segments > 1 ? 3 : 1, [&](std::size_t job) {
            if (job == 1) {
                values.resize(fewest);
            } else if (job == 2) {
                col_idx.resize(fewest);
            } else {
                for (; n < want; ++n) {
                    pos += std::bit_cast<double>(buf[n]);
                    if (pos >= total)
                        break;
                    buf[n] = std::uint64_t(pos);
                }
            }
        });
        if (n < want)
            break;
        drawn = want;
        want += want / 2;
        auto longer = std::make_unique_for_overwrite<std::uint64_t[]>(want);
        std::copy_n(buf.get(), drawn, longer.get());
        buf = std::move(longer);
    }
    if (n > std::size_t(std::numeric_limits<Index>::max()))
        via_fatal("uniform draws of ", n, " entries exceed the 32-bit "
                  "simulated index type (at most ",
                  std::numeric_limits<Index>::max(), ")");
    // Positions never decrease, so the last one bounds them all.
    via_assert(n == 0 || buf[n - 1] / ucols < std::uint64_t(rows),
               "position ", buf[n - 1], " outside ", rows, "x", cols);
    // Draw 2n, the gap that reached total, was the stream's last.
    rng = streamAt(n);
    rng.next();
    if (segments == 1) {
        // No thread zero-filled beside pass 2, so the output arrays
        // can take the exact count and keep no unused capacity.
        values = std::vector<Value>();
        col_idx = std::vector<Index>();
    }
    values.resize(n);
    col_idx.resize(n);
    row_ptr.resize(std::size_t(rows) + 1);

    // Pass 3: segment k draws its entries' values again from the
    // marks. Entry i goes to row buf[i] / cols, and row r starts at
    // the first entry in row r or later: each segment writes the
    // starts of the rows after its previous entry's row up to its
    // last entry's row.
    pool.forEach(segments, [&](std::size_t k) {
        const std::size_t lo = n * k / segments, hi = n * (k + 1) / segments;
        Rng draw = streamAt(lo);
        std::uint64_t r = lo == 0 ? 0 : buf[lo - 1] / ucols + 1;
        for (std::size_t i = lo; i < hi; ++i) {
            draw.next(); // the gap
            values[i] = randValue(draw);
            const std::uint64_t row = buf[i] / ucols;
            for (; r <= row; ++r)
                row_ptr[r] = Index(i);
            col_idx[i] = Index(buf[i] - row * ucols);
        }
        if (k + 1 == segments)
            for (; r <= std::uint64_t(rows); ++r)
                row_ptr[r] = Index(n);
    });

    buf.reset();
    // Draws on one position sum in draw order.
    return Csr::fromRows(rows, cols, std::move(row_ptr),
                         std::move(col_idx), std::move(values));
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
    // A row holds its diagonal and at most floor(off_diag) + 1
    // extras. Room for that many is reserved before any draw, so a
    // bound the host cannot hold fails at once.
    const std::size_t most =
        std::size_t(n) * (std::size_t(off_diag) + 2);
    if (most > std::size_t(std::numeric_limits<Index>::max()))
        via_fatal("diagonal-heavy bound of ", most, " entries exceeds "
                  "the 32-bit simulated index type (at most ",
                  std::numeric_limits<Index>::max(), ")");
    Coo coo(n, n);
    coo.elems().reserve(most);
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
    return Csr::fromCoo(std::move(coo));
}

} // namespace via
