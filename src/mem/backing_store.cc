#include "mem/backing_store.hh"

#include <algorithm>
#include <string>

#include "simcore/serialize.hh"

namespace via
{

std::uint8_t *
BackingStore::pageFor(Addr addr)
{
    std::uint64_t pn = addr / pageBytes;
    if (pn == _writePn)
        return _writePage;
    Page &page = _pages[pn];
    if (!page.owned) {
        // An untouched page reads as zeroes. A view is copied on its
        // first write, so the mapped buffer is never written.
        if (page.view) {
            page.owned =
                std::make_unique_for_overwrite<std::uint8_t[]>(pageBytes);
            std::memcpy(page.owned.get(), page.view.get(), pageBytes);
            page.view.reset();
        } else {
            page.owned = std::make_unique<std::uint8_t[]>(pageBytes);
        }
    }
    _readPn = _writePn = pn;
    _readPage = _writePage = page.owned.get();
    return _writePage;
}

const std::uint8_t *
BackingStore::pageForRead(Addr addr) const
{
    std::uint64_t pn = addr / pageBytes;
    if (pn == _readPn)
        return _readPage;
    auto it = _pages.find(pn);
    // Reads of untouched memory observe zeroes; materialize the page
    // so the caller can memcpy uniformly. (mutable map)
    if (it == _pages.end())
        return const_cast<BackingStore *>(this)->pageFor(addr);
    const Page &page = it->second;
    if (page.owned) {
        _writePn = pn;
        _writePage = page.owned.get();
    }
    _readPn = pn;
    _readPage = page.bytes();
    return _readPage;
}

void
BackingStore::forgetCachedPages() const
{
    _readPn = _writePn = ~std::uint64_t(0);
    _readPage = nullptr;
    _writePage = nullptr;
}

void
BackingStore::readSlow(Addr addr, void *dst, std::size_t bytes) const
{
    auto *out = static_cast<std::uint8_t *>(dst);
    while (bytes > 0) {
        std::uint64_t off = addr % pageBytes;
        std::size_t chunk = std::min<std::size_t>(bytes,
                                                  pageBytes - off);
        std::memcpy(out, pageForRead(addr) + off, chunk);
        addr += chunk;
        out += chunk;
        bytes -= chunk;
    }
}

void
BackingStore::writeSlow(Addr addr, const void *src, std::size_t bytes)
{
    auto *in = static_cast<const std::uint8_t *>(src);
    while (bytes > 0) {
        std::uint64_t off = addr % pageBytes;
        std::size_t chunk = std::min<std::size_t>(bytes,
                                                  pageBytes - off);
        std::memcpy(pageFor(addr) + off, in, chunk);
        addr += chunk;
        in += chunk;
        bytes -= chunk;
    }
}

Addr
BackingStore::alloc(std::uint64_t bytes, std::uint64_t align)
{
    via_assert(align && (align & (align - 1)) == 0,
               "alignment must be a power of two, got ", align);
    _brk = (_brk + align - 1) & ~(align - 1);
    Addr base = _brk;
    _brk += std::max<std::uint64_t>(bytes, 1);
    return base;
}

Addr
BackingStore::mapBytes(std::shared_ptr<const void> owner,
                       const void *data, std::uint64_t bytes,
                       std::uint64_t align)
{
    const Addr base = alloc(bytes, align);
    const auto *src = static_cast<const std::uint8_t *>(data);
    // Pages [first, last) lie wholly inside the array.
    const std::uint64_t first = (base + pageBytes - 1) / pageBytes;
    const std::uint64_t last = (base + bytes) / pageBytes;
    if (first >= last) {
        if (bytes)
            write(base, src, bytes);
        return base;
    }
    via_assert(owner, "a mapped array needs an owner");
    // The boundary pages hold a neighbour's bytes too: copy them.
    const Addr lo = first * pageBytes;
    const Addr hi = last * pageBytes;
    if (lo > base)
        write(base, src, lo - base);
    if (base + bytes > hi)
        write(hi, src + (hi - base), base + bytes - hi);
    for (std::uint64_t pn = first; pn < last; ++pn) {
        Page &page = _pages[pn];
        page.owned.reset();
        page.view = std::shared_ptr<const std::uint8_t>(
            owner, src + (pn * pageBytes - base));
    }
    // A page just replaced by a view may still be cached.
    forgetCachedPages();
    return base;
}

std::size_t
BackingStore::pagesShared() const
{
    std::size_t n = 0;
    for (const auto &[pn, page] : _pages)
        n += page.owned ? 0 : 1;
    return n;
}

void
BackingStore::saveState(Serializer &ser) const
{
    ser.tag("BSTR");
    ser.put(pageBytes);
    ser.put(_brk);
    // Sorted by page number so the byte stream does not depend on
    // the hash map's iteration order.
    std::vector<std::uint64_t> pns;
    pns.reserve(_pages.size());
    for (const auto &[pn, page] : _pages)
        pns.push_back(pn);
    std::sort(pns.begin(), pns.end());
    ser.put(std::uint64_t(pns.size()));
    for (std::uint64_t pn : pns) {
        ser.put(pn);
        ser.putBytes(_pages.at(pn).bytes(), pageBytes);
    }
}

void
BackingStore::loadState(Deserializer &des)
{
    des.expectTag("BSTR");
    if (des.get<std::uint64_t>() != pageBytes)
        throw SerializeError("backing store page size mismatch");
    Addr brk = des.get<Addr>();
    if (brk < allocBase)
        throw SerializeError("backing store brk " + std::to_string(brk) +
                             " is below the allocator base " +
                             std::to_string(allocBase));
    // saveState writes strictly increasing page numbers, each the
    // page of some 64-bit address.
    constexpr std::uint64_t max_pn = ~std::uint64_t(0) / pageBytes;
    std::uint64_t n = des.get();
    decltype(_pages) pages;
    for (std::uint64_t i = 0, prev = 0; i < n; ++i) {
        std::uint64_t pn = des.get();
        if (pn > max_pn)
            throw SerializeError("backing store page " +
                                 std::to_string(pn) +
                                 " lies beyond 64-bit addresses");
        if (i > 0 && pn <= prev)
            throw SerializeError("backing store page " +
                                 std::to_string(pn) + " follows page " +
                                 std::to_string(prev) +
                                 "; page numbers must strictly increase");
        prev = pn;
        Page &page = pages[pn];
        page.owned =
            std::make_unique_for_overwrite<std::uint8_t[]>(pageBytes);
        des.getBytes(page.owned.get(), pageBytes);
    }
    _pages = std::move(pages);
    forgetCachedPages();
    _brk = brk;
}

} // namespace via
