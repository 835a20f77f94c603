/**
 * @file
 * Binary serialization helpers for machine checkpoints.
 *
 * The format is deliberately simple: every integral or enum value is
 * written at its own width, sizeof(T) little-endian bytes (a 2-byte
 * resource slot takes 2), doubles as their 8-byte bit pattern, and
 * containers as an 8-byte count followed by their elements. The
 * writer and the reader of a field must name the same type: put()
 * deduces it from its argument, so a saveState casts to the field's
 * type wherever an expression could deduce another. Each component
 * prefixes its state with a 4-character section tag so a truncated
 * or mismatched stream fails with a named section instead of
 * silently misaligned reads. All read-side failures (underflow, bad
 * tag, geometry mismatch) throw SerializeError; the checkpoint layer
 * (src/sample) turns that into a rejected restore.
 */

#ifndef VIA_SIMCORE_SERIALIZE_HH
#define VIA_SIMCORE_SERIALIZE_HH

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

namespace via
{

/** Raised on any malformed, truncated, or incompatible stream. */
class SerializeError : public std::runtime_error
{
  public:
    explicit
    SerializeError(const std::string &what)
        : std::runtime_error(what)
    {}
};

/** Appends typed values to a byte buffer. */
class Serializer
{
  public:
    /** @param out destination buffer (appended to, not cleared) */
    explicit
    Serializer(std::vector<std::uint8_t> &out)
        : _out(out)
    {}

    /** Write any integral (or enum) value as sizeof(T) LE bytes. */
    template <typename T>
    void
    put(T v)
    {
        static_assert(std::is_integral_v<T> || std::is_enum_v<T>);
        auto raw = std::uint64_t(v);
        for (std::size_t i = 0; i < sizeof(T); ++i)
            _out.push_back(std::uint8_t(raw >> (8 * i)));
    }

    /** Write a double as its 8-byte bit pattern. */
    void
    putDouble(double v)
    {
        std::uint64_t bits;
        std::memcpy(&bits, &v, sizeof(bits));
        put(bits);
    }

    /** Write raw bytes (fixed-size payloads, e.g. memory pages). */
    void
    putBytes(const void *data, std::size_t bytes)
    {
        const auto *p = static_cast<const std::uint8_t *>(data);
        _out.insert(_out.end(), p, p + bytes);
    }

    /** Write a vector of integral values: count, then elements. */
    template <typename T>
    void
    putVec(const std::vector<T> &v)
    {
        put(std::uint64_t(v.size()));
        for (const T &e : v)
            put(e);
    }

    /** Write a vector<bool> (bit-packed containers lack data()). */
    void
    putBoolVec(const std::vector<bool> &v)
    {
        put(std::uint64_t(v.size()));
        for (bool b : v)
            put(std::uint8_t(b ? 1 : 0));
    }

    /** Open a named section: 4-character tag. */
    void
    tag(const char (&t)[5])
    {
        putBytes(t, 4);
    }

  private:
    std::vector<std::uint8_t> &_out;
};

/** Reads typed values back; throws SerializeError on any problem. */
class Deserializer
{
  public:
    Deserializer(const std::uint8_t *data, std::size_t size)
        : _data(data), _size(size)
    {}

    explicit
    Deserializer(const std::vector<std::uint8_t> &buf)
        : Deserializer(buf.data(), buf.size())
    {}

    /** Read one value Serializer::put wrote as a T: sizeof(T) bytes. */
    template <typename T = std::uint64_t>
    T
    get()
    {
        static_assert(std::is_integral_v<T> || std::is_enum_v<T>);
        need(sizeof(T));
        std::uint64_t raw = 0;
        for (std::size_t i = 0; i < sizeof(T); ++i)
            raw |= std::uint64_t(_data[_pos + i]) << (8 * i);
        _pos += sizeof(T);
        return T(raw);
    }

    double
    getDouble()
    {
        std::uint64_t bits = get();
        double v;
        std::memcpy(&v, &bits, sizeof(v));
        return v;
    }

    void
    getBytes(void *dst, std::size_t bytes)
    {
        need(bytes);
        std::memcpy(dst, _data + _pos, bytes);
        _pos += bytes;
    }

    /**
     * Read a vector of integral values.
     *
     * @param max_count sanity bound on the element count (guards
     *        against allocating gigabytes from a corrupt stream)
     */
    template <typename T>
    std::vector<T>
    getVec(std::uint64_t max_count = std::uint64_t(1) << 32)
    {
        std::uint64_t n = get();
        if (n > max_count)
            throw SerializeError("container count " +
                                 std::to_string(n) +
                                 " exceeds sanity bound");
        checkCount(n, sizeof(T));
        std::vector<T> v;
        v.reserve(std::size_t(n));
        for (std::uint64_t i = 0; i < n; ++i)
            v.push_back(get<T>());
        return v;
    }

    std::vector<bool>
    getBoolVec(std::uint64_t max_count = std::uint64_t(1) << 32)
    {
        std::uint64_t n = get();
        if (n > max_count)
            throw SerializeError("bitmap count too large");
        checkCount(n, sizeof(std::uint8_t));
        std::vector<bool> v(std::size_t(n), false);
        for (std::uint64_t i = 0; i < n; ++i)
            v[std::size_t(i)] = get<std::uint8_t>() != 0;
        return v;
    }

    /** Consume a section tag; mismatch names both sides. */
    void
    expectTag(const char (&t)[5])
    {
        char got[5] = {0, 0, 0, 0, 0};
        getBytes(got, 4);
        if (std::memcmp(got, t, 4) != 0)
            throw SerializeError(
                std::string("bad section tag: expected '") + t +
                "', found '" + got + "'");
    }

    /** Bytes left unread (0 when fully consumed). */
    std::size_t remaining() const { return _size - _pos; }

  private:
    void
    need(std::size_t bytes)
    {
        if (_size - _pos < bytes)
            throw SerializeError("truncated stream: need " +
                                 std::to_string(bytes) +
                                 " bytes, have " +
                                 std::to_string(_size - _pos));
    }

    /** Each element occupies @p width bytes (its type's width);
     *  reject a count the remaining bytes cannot hold. */
    void
    checkCount(std::uint64_t n, std::size_t width)
    {
        if (n > (_size - _pos) / width)
            throw SerializeError("truncated stream: container "
                                 "larger than remaining bytes");
    }

    const std::uint8_t *_data;
    std::size_t _size;
    std::size_t _pos = 0;
};

} // namespace via

#endif // VIA_SIMCORE_SERIALIZE_HH
