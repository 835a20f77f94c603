/**
 * @file
 * Helpers for tests that pin arrays by FNV-1a-64 hash
 * (simcore/fnv.hh).
 */

#ifndef VIA_TESTS_HASH_UTIL_HH
#define VIA_TESTS_HASH_UTIL_HH

#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>

namespace via
{

/** The element bytes of a contiguous container, for hashing. */
template <typename C>
std::string_view
bytesOf(const C &c)
{
    return {reinterpret_cast<const char *>(c.data()),
            c.size() * sizeof(c[0])};
}

/** @p h as 16 lower-case hex digits. */
inline std::string
hex(std::uint64_t h)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx", (unsigned long long)h);
    return buf;
}

} // namespace via

#endif // VIA_TESTS_HASH_UTIL_HH
