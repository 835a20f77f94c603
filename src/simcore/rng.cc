#include "simcore/rng.hh"

#include <bit>

namespace via
{

namespace
{

/**
 * A polynomial over GF(2) of degree below 256, bit i of the array
 * holding its x^i term; also the xoshiro256 state as a vector.
 */
using Poly = std::array<std::uint64_t, Rng::stateWords>;

/**
 * The characteristic polynomial of xoshiro256's state update, less
 * its x^256 term. Berlekamp-Massey finds it from 512 successive
 * values of one state bit; Rng.DiscardMatchesRepeatedNext checks
 * discard() built on it against next().
 */
constexpr Poly charPoly = {0x9d116f2bb0f0f001ull, 0x0280002bcefd1a5eull,
                           0x04b4edcf26259f85ull, 0x0003c03c3f3ecb19ull};

/** p x modulo the characteristic polynomial. */
constexpr Poly
timesX(const Poly &p)
{
    const std::uint64_t carry = 0 - (p[3] >> 63);
    Poly out{};
    for (std::size_t w = Rng::stateWords - 1; w > 0; --w)
        out[w] = p[w] << 1 | p[w - 1] >> 63;
    out[0] = p[0] << 1;
    for (std::size_t w = 0; w < Rng::stateWords; ++w)
        out[w] ^= charPoly[w] & carry;
    return out;
}

/** x^(256 + k) modulo the characteristic polynomial, k < 256. */
constexpr auto folded = [] {
    std::array<Poly, 256> t{};
    Poly p = timesX({0, 0, 0, std::uint64_t(1) << 63});
    for (Poly &entry : t) {
        entry = p;
        p = timesX(p);
    }
    return t;
}();

/** The 32 bits of @p x moved to the even bit positions. */
std::uint64_t
spread(std::uint64_t x)
{
    x = (x | x << 16) & 0x0000ffff0000ffffull;
    x = (x | x << 8) & 0x00ff00ff00ff00ffull;
    x = (x | x << 4) & 0x0f0f0f0f0f0f0f0full;
    x = (x | x << 2) & 0x3333333333333333ull;
    x = (x | x << 1) & 0x5555555555555555ull;
    return x;
}

/**
 * p^2 modulo the characteristic polynomial: over GF(2) the square
 * holds p's terms at twice their degrees, and a term of degree
 * 256 + k folds back as x^(256 + k) does.
 */
Poly
square(const Poly &p)
{
    std::array<std::uint64_t, 2 * Rng::stateWords> sq{};
    for (std::size_t w = 0; w < Rng::stateWords; ++w) {
        sq[2 * w] = spread(p[w] & 0xffffffffu);
        sq[2 * w + 1] = spread(p[w] >> 32);
    }
    Poly out = {sq[0], sq[1], sq[2], sq[3]};
    for (std::size_t k = 0; k < folded.size(); ++k)
        if ((sq[Rng::stateWords + k / 64] >> (k % 64)) & 1)
            for (std::size_t w = 0; w < Rng::stateWords; ++w)
                out[w] ^= folded[k][w];
    return out;
}

} // namespace

void
Rng::discard(std::uint64_t n)
{
    // next() updates the state by shifts, rotations and XORs only, so
    // one step multiplies it by a fixed matrix M over GF(2) and n
    // steps by M^n. M satisfies its characteristic polynomial
    // (Cayley-Hamilton), so M^n = r(M) for r = x^n modulo it, built
    // bit by bit of n from the top by squaring and multiplying by x.
    // r(M) s is the XOR of the states M^j s, j < 256, whose x^j term
    // r holds: the next 256 states from here.
    Poly r = {1, 0, 0, 0};
    for (int b = std::bit_width(n) - 1; b >= 0; --b) {
        r = square(r);
        if ((n >> b) & 1)
            r = timesX(r);
    }
    Poly s{};
    for (std::size_t j = 0; j < 64 * stateWords; ++j) {
        if ((r[j / 64] >> (j % 64)) & 1)
            for (std::size_t w = 0; w < stateWords; ++w)
                s[w] ^= _s[w];
        next();
    }
    setState(s);
}

} // namespace via
