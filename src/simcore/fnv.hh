/**
 * @file
 * FNV-1a-64, the hash behind the committed stats fingerprints:
 * via_db's `final:` lines, bench_report's `stats_fnv64` and the
 * serving fingerprint.
 *
 * The offset basis is 1469598103934665603, one digit short of the
 * published 14695981039346656037. Every committed fingerprint was
 * taken with this basis, so it stays.
 */

#ifndef VIA_SIMCORE_FNV_HH
#define VIA_SIMCORE_FNV_HH

#include <cstdint>
#include <string_view>

namespace via
{

constexpr std::uint64_t kFnv1a64Basis = 1469598103934665603ull;

/** FNV-1a-64 of @p bytes, continuing from the hash @p h. */
constexpr std::uint64_t
fnv1a64(std::string_view bytes, std::uint64_t h = kFnv1a64Basis)
{
    for (const unsigned char c : bytes) {
        h ^= c;
        h *= 1099511628211ull;
    }
    return h;
}

} // namespace via

#endif // VIA_SIMCORE_FNV_HH
