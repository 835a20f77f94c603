#include "sparse/generators.hh"

#include <algorithm>
#include <bit>
#include <cmath>

#include "simcore/log.hh"

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

void
randomizeValues(Coo &coo, Rng &rng)
{
    for (Triplet &t : coo.elems())
        t.value = randValue(rng);
}

Csr
genBanded(Index n, Index bandwidth, double fill, Rng &rng)
{
    via_assert(n > 0 && bandwidth >= 0, "bad band parameters");
    Coo coo(n, n);
    for (Index r = 0; r < n; ++r) {
        Index lo = std::max<Index>(0, r - bandwidth);
        Index hi = std::min<Index>(n - 1, r + bandwidth);
        for (Index c = lo; c <= hi; ++c) {
            if (c == r || rng.chance(fill))
                coo.add(r, c, randValue(rng));
        }
    }
    return Csr::fromCoo(std::move(coo));
}

Csr
genUniform(Index rows, Index cols, double density, Rng &rng)
{
    via_assert(rows > 0 && cols > 0, "bad shape");
    via_assert(density > 0.0 && density <= 1.0, "bad density ",
               density);
    // Sample nnz positions without materializing the dense grid:
    // geometric skipping over the linearized index space.
    Coo coo(rows, cols);
    double total = double(rows) * double(cols);
    auto target = std::size_t(total * density);
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
genRmat(Index n, std::size_t nnz_target, Rng &rng)
{
    const RmatDescent descent(n);
    Coo coo(n, n);
    for (std::size_t e = 0; e < nnz_target; ++e) {
        Index row = 0, col = 0;
        descent.edge(rng, row, col);
        coo.add(row, col, randValue(rng));
    }
    coo.canonicalize();
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
    const RmatDescent descent(n);
    // Both passes draw a block of edges before counting or placing
    // them, so the block's scattered row accesses are independent
    // and their cache misses overlap.
    constexpr std::size_t block = 512;

    // Pass 1: count edges per row on a copy of the stream. Only the
    // row is computed; the value draw is consumed and discarded so
    // both passes read the random sequence identically.
    std::vector<Index> row_ptr(std::size_t(n) + 1, 0);
    {
        Rng probe = rng;
        Index rows[block]{};
        for (std::size_t e0 = 0; e0 < nnz_target; e0 += block) {
            const std::size_t m = std::min(block, nnz_target - e0);
            for (std::size_t i = 0; i < m; ++i) {
                rows[i] = descent.row(probe);
                probe.next();
            }
            for (std::size_t i = 0; i < m; ++i)
                ++row_ptr[std::size_t(rows[i]) + 1];
        }
    }
    for (Index r = 0; r < n; ++r)
        row_ptr[std::size_t(r) + 1] += row_ptr[std::size_t(r)];

    // Pass 2: place each edge into its row's segment (consuming the
    // caller's rng, which therefore ends exactly as after genRmat).
    std::vector<Index> col_idx(nnz_target);
    std::vector<Value> values(nnz_target);
    {
        std::vector<Index> next(row_ptr.begin(), row_ptr.end() - 1);
        Index rows[block]{}, cols[block]{};
        Value vals[block]{};
        for (std::size_t e0 = 0; e0 < nnz_target; e0 += block) {
            const std::size_t m = std::min(block, nnz_target - e0);
            for (std::size_t i = 0; i < m; ++i) {
                descent.edge(rng, rows[i], cols[i]);
                vals[i] = randValue(rng);
            }
            for (std::size_t i = 0; i < m; ++i) {
                const auto slot =
                    std::size_t(next[std::size_t(rows[i])]++);
                col_idx[slot] = cols[i];
                values[slot] = vals[i];
            }
        }
    }

    // Each row holds its edges in draw order, so duplicate edges sum
    // in draw order.
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
