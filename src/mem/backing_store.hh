/**
 * @file
 * Sparse paged functional memory plus a bump allocator.
 *
 * The backing store holds the architectural contents of simulated
 * memory. Timing is handled entirely by MemSystem; this class is
 * purely functional so the kernels can be checked for correctness
 * against golden references.
 *
 * A page is owned (its bytes live here) or a read-only view into a
 * host buffer mapped with mapArray. The first write to a view copies
 * it into an owned page, so a mapped buffer is never written.
 */

#ifndef VIA_MEM_BACKING_STORE_HH
#define VIA_MEM_BACKING_STORE_HH

#include <cstdint>
#include <cstring>
#include <memory>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "simcore/log.hh"
#include "simcore/types.hh"

namespace via
{

class Serializer;
class Deserializer;

/** Byte-addressable sparse memory with typed helpers. */
class BackingStore
{
  public:
    static constexpr std::uint64_t pageBytes = 1 << 16;

    BackingStore() = default;

    /** Raw byte access. */
    void
    read(Addr addr, void *dst, std::size_t bytes) const
    {
        // Fast path for the overwhelmingly common case: a small
        // access inside the most recently read page.
        std::uint64_t off = addr % pageBytes;
        if (addr / pageBytes == _readPn && off + bytes <= pageBytes) {
            std::memcpy(dst, _readPage + off, bytes);
            return;
        }
        readSlow(addr, dst, bytes);
    }

    void
    write(Addr addr, const void *src, std::size_t bytes)
    {
        // The write cache only ever holds an owned page.
        std::uint64_t off = addr % pageBytes;
        if (addr / pageBytes == _writePn && off + bytes <= pageBytes) {
            std::memcpy(_writePage + off, src, bytes);
            return;
        }
        writeSlow(addr, src, bytes);
    }

    /** Typed scalar access for trivially copyable types. */
    template <typename T>
    T
    load(Addr addr) const
    {
        static_assert(std::is_trivially_copyable_v<T>);
        T v;
        read(addr, &v, sizeof(T));
        return v;
    }

    template <typename T>
    void
    store(Addr addr, const T &v)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        write(addr, &v, sizeof(T));
    }

    /**
     * Allocate a region of simulated memory.
     *
     * @param bytes region size
     * @param align required alignment (power of two)
     * @return base address of the region
     */
    Addr alloc(std::uint64_t bytes, std::uint64_t align = 64);

    /**
     * Copy a host array into simulated memory; returns its base. For
     * plain host vectors (x, histogram keys, stencil images); the
     * immutable arrays of a sparse format are mapped with mapArray.
     */
    template <typename T>
    Addr
    allocArray(const std::vector<T> &host, std::uint64_t align = 64)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        Addr base = alloc(host.size() * sizeof(T), align);
        if (!host.empty())
            write(base, host.data(), host.size() * sizeof(T));
        return base;
    }

    /**
     * Place @p host at the address allocArray would give it, without
     * copying the pages it covers whole: each becomes a read-only
     * view of @p host that holds @p owner, until its first write
     * copies it. The pages it shares with a neighbour are copied.
     * Reads, checkpoints and statistics cannot tell the difference.
     *
     * @param owner keeps @p host alive; @p host must never change
     */
    template <typename T>
    Addr
    mapArray(std::shared_ptr<const void> owner, const std::vector<T> &host,
             std::uint64_t align = 64)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        return mapBytes(std::move(owner), host.data(),
                        host.size() * sizeof(T), align);
    }

    /** Copy a simulated array back out to the host. */
    template <typename T>
    std::vector<T>
    readArray(Addr base, std::size_t count) const
    {
        static_assert(std::is_trivially_copyable_v<T>);
        std::vector<T> out(count);
        if (count)
            read(base, out.data(), count * sizeof(T));
        return out;
    }

    /** Bytes currently handed out by the allocator. */
    std::uint64_t allocated() const { return _brk - allocBase; }

    /** Number of pages materialized: owned plus shared. */
    std::size_t pagesTouched() const { return _pages.size(); }

    /** Of those, the read-only views of mapped host arrays. */
    std::size_t pagesShared() const;

    /**
     * Serialize every materialized page (a view as its bytes) and
     * the allocator brk. The brk is part of the architectural state:
     * restoring it makes allocations after the restore land at the
     * same addresses as in the original run, which is what
     * checkpoint bit-identity relies on.
     */
    void saveState(Serializer &ser) const;
    /**
     * Restore state saved by saveState; every page it restores is
     * owned. Throws SerializeError, leaving the store unchanged,
     * unless the page numbers strictly increase, each page lies in
     * the 64-bit address space and the brk is not below the
     * allocator's first address.
     */
    void loadState(Deserializer &des);

  private:
    /** First address the allocator hands out (avoid address 0). */
    static constexpr Addr allocBase = 0x10000;

    /** An owned page, or a view into a mapped buffer. */
    struct Page
    {
        std::unique_ptr<std::uint8_t[]> owned;
        std::shared_ptr<const std::uint8_t> view; //!< holds the owner

        const std::uint8_t *
        bytes() const
        {
            return owned ? owned.get() : view.get();
        }
    };

    Addr mapBytes(std::shared_ptr<const void> owner, const void *data,
                  std::uint64_t bytes, std::uint64_t align);
    void readSlow(Addr addr, void *dst, std::size_t bytes) const;
    void writeSlow(Addr addr, const void *src, std::size_t bytes);
    std::uint8_t *pageFor(Addr addr);
    const std::uint8_t *pageForRead(Addr addr) const;
    void forgetCachedPages() const;

    mutable std::unordered_map<std::uint64_t, Page> _pages;
    // Last-page caches: accesses are overwhelmingly local, and the
    // page arrays never move once materialized, so a remembered
    // (page number, pointer) pair skips the hash on the common path.
    // Reads may cache a view; writes cache owned pages only.
    mutable std::uint64_t _readPn = ~std::uint64_t(0);
    mutable const std::uint8_t *_readPage = nullptr;
    mutable std::uint64_t _writePn = ~std::uint64_t(0);
    mutable std::uint8_t *_writePage = nullptr;
    Addr _brk = allocBase;
};

} // namespace via

#endif // VIA_MEM_BACKING_STORE_HH
