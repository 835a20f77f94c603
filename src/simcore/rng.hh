/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * All stochastic pieces of the simulator (workload generators, the
 * synthetic corpus) draw from Rng so that a given seed reproduces a
 * bit-identical experiment. The generator is splitmix64 seeded
 * xoshiro256**, which is fast and statistically solid for this use.
 */

#ifndef VIA_SIMCORE_RNG_HH
#define VIA_SIMCORE_RNG_HH

#include <array>
#include <cstddef>
#include <cstdint>

namespace via
{

/** Deterministic 64-bit PRNG with convenience distributions. */
class Rng
{
  public:
    explicit
    Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull)
    {
        // splitmix64 to fill the xoshiro state from one seed word.
        std::uint64_t x = seed;
        for (auto &word : _s) {
            x += 0x9e3779b97f4a7c15ull;
            std::uint64_t z = x;
            z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
            z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
            word = z ^ (z >> 31);
        }
    }

    /** Next raw 64-bit value (xoshiro256**). */
    std::uint64_t
    next()
    {
        auto rotl = [](std::uint64_t v, int k) {
            return (v << k) | (v >> (64 - k));
        };
        std::uint64_t result = rotl(_s[1] * 5, 7) * 9;
        std::uint64_t t = _s[1] << 17;
        _s[2] ^= _s[0];
        _s[3] ^= _s[1];
        _s[1] ^= _s[2];
        _s[0] ^= _s[3];
        _s[2] ^= t;
        _s[3] = rotl(_s[3], 45);
        return result;
    }

    /** Uniform integer in [0, bound). bound must be nonzero. */
    std::uint64_t
    below(std::uint64_t bound)
    {
        // Lemire's multiply-shift rejection-free variant is overkill
        // here; modulo bias is negligible for our bounds (< 2^32).
        return next() % bound;
    }

    /** Uniform integer in [lo, hi] inclusive. */
    std::int64_t
    range(std::int64_t lo, std::int64_t hi)
    {
        return lo + std::int64_t(below(std::uint64_t(hi - lo + 1)));
    }

    /** Uniform double in [0, 1). */
    double
    uniform()
    {
        return double(next() >> 11) * (1.0 / 9007199254740992.0);
    }

    /** Bernoulli trial. */
    bool chance(double p) { return uniform() < p; }

    /**
     * Advance the generator exactly as @p n calls of next() would:
     * x^n modulo the characteristic polynomial of xoshiro256's linear
     * state update, in O(log n) squarings of 256-bit polynomials,
     * then 256 steps. This is the jump of Blackman and Vigna (arXiv
     * 1805.01407) at any distance, in about 20 us. A stream can thus
     * be split into segments that separate threads draw.
     */
    void discard(std::uint64_t n);

    /** Number of 64-bit state words (xoshiro256). */
    static constexpr std::size_t stateWords = 4;

    /** Capture the generator state (machine checkpoints). */
    std::array<std::uint64_t, stateWords>
    state() const
    {
        return {_s[0], _s[1], _s[2], _s[3]};
    }

    /** Restore a state captured by state(). */
    void
    setState(const std::array<std::uint64_t, stateWords> &s)
    {
        for (std::size_t i = 0; i < stateWords; ++i)
            _s[i] = s[i];
    }

  private:
    std::uint64_t _s[4];
};

} // namespace via

#endif // VIA_SIMCORE_RNG_HH
