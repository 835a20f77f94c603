/**
 * @file
 * A set-associative write-back, write-allocate cache tag model.
 *
 * Cache tracks tags and dirty bits functionally (data lives in
 * BackingStore) and accounts for MSHR occupancy so that a stream of
 * misses is throttled to the number of outstanding-miss registers.
 * Timing is computed analytically by MemSystem, which walks the
 * levels on each access.
 */

#ifndef VIA_MEM_CACHE_HH
#define VIA_MEM_CACHE_HH

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "mem/mem_types.hh"
#include "simcore/types.hh"
#include "trace/trace.hh"

namespace via
{

class Serializer;
class Deserializer;

/**
 * Per-level statistics, exposed raw for StatSet registration.
 *
 * Every access is classified exactly once: hit, miss, or MSHR merge
 * (a secondary miss to a line already in flight). The invariant
 * checker (src/check) relies on reads + writes == hits + misses +
 * mshrMerges holding at all times.
 */
struct CacheStats
{
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t hits = 0;
    std::uint64_t readMisses = 0;
    std::uint64_t writeMisses = 0;
    std::uint64_t mshrMerges = 0; //!< secondary misses merged in flight
    std::uint64_t writebacks = 0;
    std::uint64_t mshrStallCycles = 0;

    std::uint64_t accesses() const { return reads + writes; }
    std::uint64_t misses() const { return readMisses + writeMisses; }
    /** Misses including secondary (merged) ones. */
    std::uint64_t demandMisses() const { return misses() + mshrMerges; }
};

/** One level of set-associative cache with LRU replacement. */
class Cache
{
  public:
    explicit Cache(const CacheParams &params);

    /** Outcome of a tag lookup. */
    struct LookupResult
    {
        bool hit = false;
        bool victimDirty = false; //!< an eviction wrote back a line
        Addr victimLine = 0;      //!< line address of the writeback
    };

    /**
     * Access one cache line: probe the tags, allocate on miss (LRU
     * victim), update dirty bit for writes.
     *
     * @param line_addr line-aligned address
     * @param is_write store access (sets dirty on the allocated line)
     * @return hit/miss and any dirty eviction
     */
    LookupResult access(Addr line_addr, bool is_write);

    /**
     * Hit-only probe: on a hit, performs exactly what access() would
     * (LRU touch, dirty update, hit accounting) and returns true. On
     * a miss, mutates and counts nothing — the caller falls back to
     * the full access() walk, which repeats the probe and books the
     * miss. This is MemSystem's single-branch L1 fast path.
     */
    bool
    tryHit(Addr line_addr, bool is_write)
    {
        Line *set = &_lines[setIndex(line_addr) * _params.assoc];
        for (std::uint32_t way = 0; way < _params.assoc; ++way) {
            Line &line = set[way];
            if (line.valid && line.tag == line_addr) {
                line.lruStamp = ++_lruClock;
                line.dirty = line.dirty || is_write;
                if (is_write)
                    ++_stats.writes;
                else
                    ++_stats.reads;
                ++_stats.hits;
                return true;
            }
        }
        return false;
    }

    /**
     * True when no in-flight fill can complete after @p when: every
     * mshrLookup at @p when would report a miss. Gates the L1 hit
     * fast path without a hash probe per access.
     */
    bool
    quiescentAt(Tick when) const
    {
        return when >= _inflightHorizon;
    }

    /**
     * Account an access that merged with an in-flight fill. The tag
     * was installed when the primary miss allocated, so a regular
     * access() would misclassify the merge as a hit; this counts it
     * as an mshrMerge instead and only touches LRU/dirty state.
     */
    void mergeTouch(Addr line_addr, bool is_write);

    /** Probe without modifying state (for tests/inspection). */
    bool contains(Addr line_addr) const;

    /** Probe without modifying state; true when present and dirty. */
    bool containsDirty(Addr line_addr) const;

    /**
     * Coherence invalidation: drop @p line_addr if present.
     * @return true when the dropped line was dirty (the caller owns
     *         propagating the writeback / dirty-forward)
     */
    bool invalidate(Addr line_addr);

    /**
     * Warm-only access (functional fast-forward): identical tag,
     * LRU, dirty and hit/miss accounting to access(), but since no
     * timed fills are in flight an access that would merge with an
     * MSHR in detailed mode hits on the pre-installed tag here. Both
     * classifications keep accesses == hits + misses + merges.
     */
    LookupResult warmAccess(Addr line_addr, bool is_write)
    {
        return access(line_addr, is_write);
    }

    /**
     * Forget in-flight miss bookings (absolute ticks) without
     * touching tags or statistics. Needed between measurement
     * intervals: a stale completion tick from before the reset would
     * stall every post-reset miss behind it.
     */
    void resetTiming();

    /**
     * Earliest tick a new miss can allocate an MSHR (the earliest
     * slot-free time). The caller gates the miss's issue on this and
     * then calls mshrReserve with the resulting completion.
     */
    Tick mshrFreeAt() const;

    /**
     * Earliest tick at or after @p when with a free MSHR, judged by
     * the in-flight fills themselves rather than the reservation
     * heap. The heap assumes reservations arrive in time order —
     * true for a private cache fed by one core's monotone dispatch,
     * wrong for a shared cache fed by interleaved core timelines:
     * after one core books a stretch of misses, the heap holds only
     * that core's latest completions, and a sibling core accessing
     * at an earlier tick would be gated behind them even though at
     * its tick most MSHRs are genuinely free. Counting the fills
     * actually in flight at @p when is booking-order-independent.
     * Requires trackFillSpans(true).
     */
    Tick mshrFreeAt(Tick when) const;

    /** Record fill intervals for mshrFreeAt(Tick) (shared LLC). */
    void trackFillSpans(bool on) { _trackFills = on; }

    /**
     * Occupy the earliest MSHR slot until @p complete for the miss
     * to @p line_addr. @p stall (issue delay caused by MSHR
     * pressure) is recorded for statistics; @p issue (when the miss
     * left this level) bounds the traced MSHR-occupancy span.
     */
    void mshrReserve(Addr line_addr, Tick complete, Tick stall = 0,
                     Tick issue = 0);

    /** Attach a trace sink, attributing events to track @p comp. */
    void
    setTrace(TraceManager *trace, TraceComponent comp)
    {
        _trace = trace;
        _traceComp = comp;
    }

    /** If the line has an in-flight miss, returns its completion. */
    bool mshrLookup(Addr line_addr, Tick when, Tick &complete) const;

    /**
     * As above, but also reports when the in-flight fill issued.
     * A shared cache fed by interleaved core timelines needs the
     * issue tick to decide whether a merge is physically sensible:
     * a fill booked by a core running ahead in simulated time has
     * not issued yet from a lagging requester's viewpoint — the
     * lagging request is first in time order and must fetch the
     * line itself rather than stall until the future fill lands.
     */
    bool mshrLookup(Addr line_addr, Tick when, Tick &complete,
                    Tick &issue) const;

    const CacheParams &params() const { return _params; }
    CacheStats &stats() { return _stats; }
    const CacheStats &stats() const { return _stats; }

    /** Serialize tags, LRU, dirty bits, MSHRs, stats (checkpoints). */
    void saveState(Serializer &ser) const;
    /** Restore state saved by saveState; validates the geometry. */
    void loadState(Deserializer &des);

  private:
    struct Line
    {
        Addr tag = 0;
        bool valid = false;
        bool dirty = false;
        std::uint64_t lruStamp = 0;
    };

    /**
     * Line size is a power of two (asserted in the constructor), so
     * the line number is a shift; the set fold is a mask when the
     * set count cooperates and a modulo otherwise.
     */
    std::size_t
    setIndex(Addr line_addr) const
    {
        Addr line = line_addr >> _lineShift;
        if (_setsPow2)
            return std::size_t(line) & (_numSets - 1);
        return std::size_t(line % _numSets);
    }

    /** Drop in-flight entries whose fills completed by @p horizon. */
    void pruneInflight(Tick horizon);

    CacheParams _params;
    std::size_t _numSets;
    unsigned _lineShift = 0;
    bool _setsPow2 = false;
    std::vector<Line> _lines; //!< numSets * assoc, row-major by set
    std::uint64_t _lruClock = 0;
    CacheStats _stats;

    /** Outstanding miss completion times, by line address. */
    /**
     * One in-flight fill. The issue tick exists for the time-aware
     * queries only (shared LLC); checkpoints persist just the
     * completion, restoring issue = 0 ("issued long ago"), which is
     * exact for the private hierarchies that checkpoints cover.
     */
    struct Inflight
    {
        Tick complete = 0;
        Tick issue = 0;
    };
    std::unordered_map<Addr, Inflight> _inflight;
    /** Latest completion among _inflight entries (0 = none). */
    Tick _inflightHorizon = 0;

    /**
     * Issue/completion intervals of recent fills, a bounded ring
     * for the time-aware mshrFreeAt(Tick) occupancy query. Opt-in
     * (trackFillSpans) so private caches do not pay the per-miss
     * append; not checkpointed: only the shared LLC (which has no
     * checkpoint path) enables and consults it.
     */
    struct FillSpan
    {
        Tick issue = 0;
        Tick complete = 0;
    };
    std::vector<FillSpan> _recentFills;
    std::size_t _fillNext = 0;
    bool _trackFills = false;
    /** Completion times occupying MSHR slots (a min-heap). */
    std::vector<Tick> _mshrBusyUntil;

    TraceManager *_trace = nullptr;
    TraceComponent _traceComp = TraceComponent::CacheL1;
};

} // namespace via

#endif // VIA_MEM_CACHE_HH
