#include "simcore/rng.hh"

#include <bit>

namespace via
{

namespace
{

constexpr std::size_t stateBits = 64 * Rng::stateWords;

/** The xoshiro256 state as a vector over GF(2). */
using Bits = std::array<std::uint64_t, Rng::stateWords>;

void
xorInto(Bits &to, const Bits &from)
{
    for (std::size_t w = 0; w < Rng::stateWords; ++w)
        to[w] ^= from[w];
}

/**
 * A 256x256 matrix over GF(2), stored by columns: col[j] is the image
 * of the state whose only set bit is bit j.
 */
struct Gf2Matrix
{
    std::array<Bits, stateBits> col;
};

/** m v: the XOR of the columns that v's set bits pick. */
Bits
apply(const Gf2Matrix &m, const Bits &v)
{
    Bits out{};
    for (std::size_t j = 0; j < stateBits; ++j)
        if ((v[j / 64] >> (j % 64)) & 1)
            xorInto(out, m.col[j]);
    return out;
}

/**
 * m m, by the method of Four Russians: for each group of 8 columns
 * of m, tabulate the XOR of every subset once, then each column of
 * the product adds the entry its byte in that group picks.
 */
Gf2Matrix
square(const Gf2Matrix &m)
{
    Gf2Matrix out{};
    std::array<Bits, 256> sums{};
    for (std::size_t g = 0; g < stateBits / 8; ++g) {
        for (unsigned t = 1; t < 256; ++t) {
            sums[t] = sums[t & (t - 1)];
            xorInto(sums[t], m.col[8 * g + std::countr_zero(t)]);
        }
        for (std::size_t j = 0; j < stateBits; ++j)
            xorInto(out.col[j],
                    sums[(m.col[j][g / 8] >> (8 * (g % 8))) & 0xff]);
    }
    return out;
}

} // namespace

void
Rng::discard(std::uint64_t n)
{
    // next() updates the state by shifts, rotations and XORs only, so
    // one step multiplies it by a fixed matrix M and n steps by M^n,
    // applied here bit by bit of n as M, M^2, M^4, ...
    Gf2Matrix step{};
    for (std::size_t j = 0; j < stateBits; ++j) {
        Bits unit{};
        unit[j / 64] = std::uint64_t(1) << (j % 64);
        Rng r;
        r.setState(unit);
        r.next();
        step.col[j] = r.state();
    }
    Bits s = state();
    for (; n; n >>= 1) {
        if (n & 1)
            s = apply(step, s);
        if (n > 1)
            step = square(step);
    }
    setState(s);
}

} // namespace via
