/**
 * @file
 * A shared last-level cache with banked bandwidth and a directory
 * coherence filter, for the multi-core machine.
 *
 * Each core's private MemSystem routes its last-private-level misses
 * and dirty writebacks here instead of to a private DRAM. The LLC
 * models three effects the single-core hierarchy cannot:
 *
 *  - contention: accesses serialize on one of `banks` bank pipes
 *    (selected by line address), each a per-cycle Resource, so
 *    aggregate LLC bandwidth saturates at `banks` lines/cycle;
 *  - coherence: a line-granular directory tracks which cores hold a
 *    copy and which (if any) holds it modified. A write invalidates
 *    remote copies; a read of a modified line forces a dirty forward
 *    from the owner (writeback into the LLC plus a core-to-core
 *    transfer penalty). Functional data always lives in the shared
 *    BackingStore, so the filter is a pure timing/statistics model;
 *  - a single shared DRAM behind the tags, which all cores' misses
 *    serialize on.
 *
 * Timing is analytic, like MemSystem: no event scheduling. The cores
 * book the banks and the DRAM out of simulated-time order, and a
 * booking that asks for a cycle behind a Resource's window base is
 * moved up to the base, which delays it. That is not harmless: one
 * static-partitioned chunk runs far past the window's slack, and
 * spma_4core moves 770 bookings, by up to 1.1M cycles (ROADMAP).
 */

#ifndef VIA_MEM_SHARED_LLC_HH
#define VIA_MEM_SHARED_LLC_HH

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "mem/cache.hh"
#include "mem/dram.hh"
#include "mem/mem_system.hh"
#include "mem/mem_types.hh"
#include "simcore/resource.hh"
#include "simcore/stats.hh"
#include "simcore/types.hh"

namespace via
{

class MemSystem;

/** Geometry and timing of the shared level. */
struct SharedLlcParams
{
    CacheParams cache;   //!< tags of the shared level
    DramParams dram;     //!< the single shared DRAM behind it
    PrefetchParams prefetch;
    std::uint32_t banks = 8;     //!< parallel bank pipes
    Tick dirtyForwardLatency = 16; //!< core-to-core transfer penalty

    /**
     * Derive shared-level parameters from a single-core hierarchy:
     * the last level's geometry scaled by the core count (capacity
     * and MSHRs), the same DRAM, the same prefetch policy.
     */
    static SharedLlcParams from(const MemSystemParams &mem,
                                unsigned cores);
};

/** Coherence and contention statistics, raw for StatSet. */
struct SharedLlcStats
{
    std::uint64_t invalidations = 0; //!< remote private copies dropped
    std::uint64_t dirtyForwards = 0; //!< modified lines forwarded
    std::uint64_t bankQueueCycles = 0; //!< waited for a bank pipe
    /**
     * Requests that found an MSHR entry whose fill issues later in
     * simulated time (booked by a core whose emission runs ahead)
     * and fetched the line themselves instead of merging.
     */
    std::uint64_t earlyFetches = 0;
};

/** The shared level: banked tags + directory + one DRAM. */
class SharedLlc
{
  public:
    explicit SharedLlc(const SharedLlcParams &params);

    /**
     * Register core @p core_id's private hierarchy so coherence
     * actions can invalidate its cached copies. Core ids must be
     * dense from zero.
     */
    void attachCore(unsigned core_id, MemSystem *mem);

    /**
     * Timed access from @p core for one line that missed the
     * private levels. Books a bank pipe, applies coherence actions
     * against other cores' private caches, walks the LLC tags, and
     * serves misses from the shared DRAM.
     *
     * @return tick at which the line is available to the core
     */
    Tick access(unsigned core, Addr line_addr, bool is_write,
                Tick when);

    /**
     * A dirty line evicted from @p core's private levels lands in
     * the LLC (write-allocate). Consumes a bank slot and possibly
     * DRAM bandwidth but never delays the evicting access.
     */
    void writeback(unsigned core, Addr line_addr, Tick when);

    /** Untimed twin of access() for functional fast-forward. */
    void warmAccess(unsigned core, Addr line_addr, bool is_write);

    /** Untimed twin of writeback(). */
    void warmWriteback(unsigned core, Addr line_addr);

    /** Forget timing bookings (banks, MSHRs, DRAM pipe). */
    void resetTiming();

    /** Register llc.* and dram.* statistics. */
    void registerStats(StatSet &stats) const;

    /** Attach a trace sink (LLC probes on the CacheL2 track). */
    void setTrace(TraceManager *trace);

    const SharedLlcParams &params() const { return _params; }
    Cache &tags() { return _tags; }
    const Cache &tags() const { return _tags; }
    Dram &dram() { return _dram; }
    const Dram &dram() const { return _dram; }
    SharedLlcStats &stats() { return _stats; }
    const SharedLlcStats &stats() const { return _stats; }
    unsigned cores() const { return unsigned(_cores.size()); }

    /** Bank index serving @p line_addr (exposed for tests). */
    std::uint32_t bankOf(Addr line_addr) const;

    /**
     * Drop every core's private copies of an LLC victim and reset its
     * directory entry (public for tests). A line no core holds,
     * touched or not, changes nothing.
     */
    void backInvalidate(Addr line_addr);

    /** Directory pages allocated so far (see DirEntry). */
    std::size_t directoryPages() const { return _dirPages.size(); }

  private:
    /**
     * Directory entry: which cores cache the line, who owns it. The
     * default entry, no sharers and no owner, is a line no core holds.
     * Entries live in pages of dirPageLines consecutive lines (a 64 KB
     * BackingStore page of 64-byte lines, 8 KB of entries), each
     * allocated when one of its lines is first touched. A clean LLC
     * victim keeps its private copies and so its entry, and a dirty
     * one resets it, so a page is never freed.
     */
    struct DirEntry
    {
        std::uint32_t sharers = 0; //!< bitmask of caching cores
        int owner = -1;            //!< core with a modified copy
    };
    static constexpr std::uint64_t dirPageLines = 1024;

    /**
     * Apply the coherence filter for an access by @p core and
     * update the directory. Returns the extra latency (a dirty
     * forward); invalidations of remote private copies happen as a
     * side effect.
     */
    Tick coherenceActions(unsigned core, Addr line_addr,
                          bool is_write);

    /** @p line_addr's entry; the first touch allocates its page. */
    DirEntry &dirEntry(Addr line_addr);

    /** @p line_addr's entry, or nullptr if its page is untouched. */
    DirEntry *findDirEntry(Addr line_addr);

    /** Invalidate @p line_addr in core @p c's private levels. */
    bool invalidatePrivate(unsigned c, Addr line_addr);

    SharedLlcParams _params;
    Cache _tags;
    Dram _dram;
    std::vector<Resource> _banks;
    std::vector<MemSystem *> _cores;
    std::unordered_map<std::uint64_t, std::unique_ptr<DirEntry[]>>
        _dirPages; //!< by page number: line number / dirPageLines
    // Last-page cache, as in BackingStore: coherence traffic is local,
    // and a page never moves once allocated.
    std::uint64_t _dirPn = ~std::uint64_t(0);
    DirEntry *_dirPage = nullptr;
    SharedLlcStats _stats;
    std::uint64_t _prefetches = 0;
    TraceManager *_trace = nullptr;
};

} // namespace via

#endif // VIA_MEM_SHARED_LLC_HH
