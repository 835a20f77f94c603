/**
 * @file
 * The assembled memory hierarchy: N cache levels over DRAM.
 *
 * MemSystem computes the completion time of each access analytically
 * by walking the levels, charging hit latencies, reserving MSHRs on
 * misses, and serializing on the DRAM pipe. It is deterministic and
 * needs no event scheduling, yet reproduces the latency/bandwidth
 * behaviour the VIA paper's results hinge on.
 */

#ifndef VIA_MEM_MEM_SYSTEM_HH
#define VIA_MEM_MEM_SYSTEM_HH

#include <memory>
#include <vector>

#include "mem/cache.hh"
#include "mem/dram.hh"
#include "mem/mem_types.hh"
#include "simcore/stats.hh"
#include "simcore/types.hh"

namespace via
{

class SharedLlc;

/** Parameters for the full hierarchy. */
struct MemSystemParams
{
    std::vector<CacheParams> levels;
    DramParams dram;
    PrefetchParams prefetch;

    /** A Haswell-like two-level default (Table I). */
    static MemSystemParams defaults();
};

/** Cache levels over a DRAM pipe with analytic access timing. */
class MemSystem
{
  public:
    explicit MemSystem(const MemSystemParams &params);

    /**
     * Perform one timed access.
     *
     * The access is split into cache lines; the result is the
     * completion of the slowest line. Stores complete when the line
     * is owned in L1 (write-allocate).
     *
     * @param addr byte address
     * @param bytes access size
     * @param is_write store access
     * @param when issue tick
     */
    MemResult access(Addr addr, std::uint64_t bytes, bool is_write,
                     Tick when);

    /**
     * Warm the hierarchy without timing (functional fast-forward).
     *
     * Walks the same level sequence as access() — tag installs, LRU
     * updates, dirty-victim writebacks, last-level prefetches — and
     * classifies each line into the regular hit/miss counters, but
     * books no MSHRs, no ports, and no DRAM pipe cycles. DRAM byte
     * counters advance via Dram::warmTraffic. The resulting tag,
     * LRU and dirty state is identical to a detailed run of the
     * same access stream.
     */
    void warmAccess(Addr addr, std::uint64_t bytes, bool is_write);

    /**
     * Forget all in-flight timing bookings — cache MSHRs and the
     * DRAM pipe — without touching tags or statistics. Called by
     * OoOCore::resetTiming between measurement intervals.
     */
    void resetTiming();

    /** Line size of the first level. */
    std::uint32_t lineBytes() const;

    std::size_t numLevels() const { return _levels.size(); }
    Cache &level(std::size_t i) { return *_levels.at(i); }
    const Cache &level(std::size_t i) const { return *_levels.at(i); }
    Dram &dram() { return _dram; }
    const Dram &dram() const { return _dram; }

    /**
     * Route last-private-level misses and writebacks to a shared
     * LLC instead of the private DRAM (multi-core mode). The private
     * DRAM then serves no traffic, the private prefetcher is
     * disabled (the shared level prefetches), and @p core_id tags
     * this hierarchy's requests for coherence and contention.
     */
    void attachShared(SharedLlc *shared, unsigned core_id);

    SharedLlc *shared() const { return _shared; }
    unsigned coreId() const { return _coreId; }

    /** Register all hierarchy statistics under "mem.". */
    void registerStats(StatSet &stats) const;

    /**
     * Attach a trace sink to the hierarchy: hit/miss instants are
     * emitted per level, MSHR occupancy by each cache, bursts by
     * the DRAM pipe.
     */
    void setTrace(TraceManager *trace);

    /** Lines fetched by the prefetcher (statistic). */
    std::uint64_t prefetches() const { return _prefetches; }

    /** Serialize every level, the DRAM and the prefetch counter. */
    void saveState(Serializer &ser) const;
    /** Restore state saved by saveState; validates the topology. */
    void loadState(Deserializer &des);

  private:
    /** Timed access for one line. */
    MemResult accessLine(Addr line_addr, bool is_write, Tick when);

    /** Untimed warming walk for one line. */
    void warmLine(Addr line_addr, bool is_write);

    /** Issue next-line prefetches after a demand miss. */
    void prefetchAfter(Addr line_addr, Tick when);

    /** Untimed next-line prefetch warming after a demand miss. */
    void warmPrefetch(Addr line_addr);

    /** Trace track for cache level @p i (L1, then L2 and below). */
    static TraceComponent levelComponent(std::size_t i);

    MemSystemParams _params;
    std::vector<std::unique_ptr<Cache>> _levels;
    Dram _dram;
    std::uint64_t _prefetches = 0;
    TraceManager *_trace = nullptr;
    SharedLlc *_shared = nullptr;
    unsigned _coreId = 0;
};

} // namespace via

#endif // VIA_MEM_MEM_SYSTEM_HH
