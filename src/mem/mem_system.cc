#include "mem/mem_system.hh"

#include <algorithm>

#include "mem/shared_llc.hh"
#include "simcore/log.hh"
#include "simcore/selfprof.hh"
#include "simcore/serialize.hh"

namespace via
{

MemSystemParams
MemSystemParams::defaults()
{
    MemSystemParams p;
    CacheParams l1;
    l1.name = "l1d";
    l1.sizeBytes = 32 * 1024;
    l1.assoc = 8;
    l1.lineBytes = 64;
    l1.hitLatency = 4;
    l1.mshrs = 16;
    CacheParams l2;
    l2.name = "l2";
    l2.sizeBytes = 1024 * 1024;
    l2.assoc = 16;
    l2.lineBytes = 64;
    l2.hitLatency = 12;
    l2.mshrs = 32;
    p.levels = {l1, l2};
    p.dram.latency = 180;
    // Single-channel DDR3-1600 (gem5's classic default): 12.8 GB/s
    // peak = 6.4 B/cycle at 2 GHz.
    p.dram.bytesPerCycle = 6.4;
    return p;
}

MemSystem::MemSystem(const MemSystemParams &params)
    : _params(params), _dram(params.dram)
{
    via_assert(!params.levels.empty(),
               "memory hierarchy needs at least one cache level");
    std::uint32_t line = params.levels.front().lineBytes;
    for (const auto &lp : params.levels) {
        via_assert(lp.lineBytes == line,
                   "all levels must share one line size");
        _levels.push_back(std::make_unique<Cache>(lp));
    }
}

void
MemSystem::attachShared(SharedLlc *shared, unsigned core_id)
{
    via_assert(shared != nullptr, "null shared LLC");
    via_assert(shared->params().cache.lineBytes == lineBytes(),
               "shared LLC line size must match the private levels");
    _shared = shared;
    _coreId = core_id;
    shared->attachCore(core_id, this);
}

std::uint32_t
MemSystem::lineBytes() const
{
    return _params.levels.front().lineBytes;
}

MemResult
MemSystem::accessLine(Addr line_addr, bool is_write, Tick when)
{
    bool tracing = _trace != nullptr && _trace->enabled();

    // Fast path: an L1 hit with no fill still in flight behaves
    // exactly like the full walk below (no merge possible, no
    // writeback on a hit) but costs one tag probe. tryHit books the
    // hit itself; a miss falls through having touched nothing.
    Cache &l1f = *_levels.front();
    if (!tracing && l1f.quiescentAt(when) &&
        l1f.tryHit(line_addr, is_write))
        return MemResult{when + l1f.params().hitLatency, 0};

    Tick latency = 0;
    int hit_level = -1;
    auto probe_event = [&](std::size_t level, bool hit) {
        TraceEvent ev;
        ev.kind = hit ? TraceEventKind::CacheHit
                      : TraceEventKind::CacheMiss;
        ev.comp = levelComponent(level);
        ev.start = ev.end = when;
        ev.a0 = line_addr;
        _trace->emit(ev);
    };

    // Walk the tags to find where the line comes from, accounting
    // writebacks and merging with in-flight fetches.
    for (std::size_t i = 0; i < _levels.size(); ++i) {
        Cache &cache = *_levels[i];
        latency += cache.params().hitLatency;

        // A miss to a line already being fetched merges with the
        // outstanding fill — no new MSHR is needed. The merge is a
        // secondary miss: counting it through access() would book a
        // hit (the tag was pre-installed when the primary miss
        // allocated) and silently inflate the hit rate.
        Tick inflight;
        if (cache.mshrLookup(line_addr, when, inflight)) {
            cache.mergeTouch(line_addr, is_write);
            if (tracing)
                probe_event(i, false);
            return MemResult{std::max(inflight, when + latency),
                             int(i)};
        }

        auto res = cache.access(line_addr, is_write);
        if (tracing)
            probe_event(i, res.hit);

        // A dirty eviction writes back into the level below (or DRAM
        // at the last level). The writeback consumes bandwidth but
        // does not delay this access.
        if (res.victimDirty) {
            if (i + 1 < _levels.size())
                _levels[i + 1]->access(res.victimLine, true);
            else if (_shared)
                _shared->writeback(_coreId, res.victimLine, when);
            else
                _dram.serve(cache.params().lineBytes, when, true);
        }

        if (res.hit) {
            hit_level = int(i);
            break;
        }
    }

    if (hit_level == 0)
        return MemResult{when + latency, 0};

    if (hit_level < 0 && _shared == nullptr &&
        _params.prefetch.degree > 0)
        prefetchAfter(line_addr, when);

    // The miss leaves L1 only when an L1 MSHR is available; a
    // DRAM-bound miss additionally needs a last-level MSHR.
    Cache &l1 = *_levels.front();
    Cache &last = *_levels.back();
    Tick issue = std::max(when, l1.mshrFreeAt());
    if (hit_level < 0 && _levels.size() > 1)
        issue = std::max(issue, last.mshrFreeAt());
    Tick stall = issue - when;

    Tick complete;
    if (hit_level > 0) {
        complete = issue + latency;
    } else {
        // The shared LLC (multi-core) or the private DRAM fills the
        // line; either way the fill serializes behind this
        // hierarchy's private latencies.
        Tick fill =
            _shared ? _shared->access(_coreId, line_addr, is_write,
                                      issue)
                    : _dram.serve(last.params().lineBytes, issue,
                                  false);
        complete = std::max(fill, issue + latency);
        if (_levels.size() > 1)
            last.mshrReserve(line_addr, complete, 0, issue);
    }
    l1.mshrReserve(line_addr, complete, stall, issue);
    return MemResult{complete, hit_level};
}

void
MemSystem::prefetchAfter(Addr line_addr, Tick when)
{
    // Next-N-line prefetch into the last level: consumes DRAM
    // bandwidth and tag space but never blocks the demand miss.
    Cache &last = *_levels.back();
    const std::uint64_t line = last.params().lineBytes;
    for (std::uint32_t d = 1; d <= _params.prefetch.degree; ++d) {
        Addr target = line_addr + Addr(d) * line;
        Tick inflight;
        if (last.contains(target) ||
            last.mshrLookup(target, when, inflight))
            continue;
        Tick fill = _dram.serve(line, when, false);
        auto res = last.access(target, false);
        // The victim cannot leave before the prefetched line that
        // evicts it has arrived: charge the writeback at fill time,
        // not at demand time.
        if (res.victimDirty)
            _dram.serve(line, fill, true);
        last.mshrReserve(target, fill, 0, when);
        ++_prefetches;
    }
}

void
MemSystem::warmLine(Addr line_addr, bool is_write)
{
    // Same level walk as accessLine, minus every timing effect. In
    // detailed mode a line with an in-flight fill merges via
    // mergeTouch (LRU/dirty refresh on the pre-installed tag); here
    // there are no fills in flight, so warmAccess classifies the
    // same touch as a hit — tag, LRU and dirty outcomes match.
    for (std::size_t i = 0; i < _levels.size(); ++i) {
        Cache &cache = *_levels[i];
        auto res = cache.warmAccess(line_addr, is_write);
        if (res.victimDirty) {
            if (i + 1 < _levels.size())
                _levels[i + 1]->warmAccess(res.victimLine, true);
            else if (_shared)
                _shared->warmWriteback(_coreId, res.victimLine);
            else
                _dram.warmTraffic(cache.params().lineBytes, true);
        }
        if (res.hit)
            return;
    }

    if (_shared) {
        _shared->warmAccess(_coreId, line_addr, is_write);
        return;
    }
    _dram.warmTraffic(_levels.back()->params().lineBytes, false);
    if (_params.prefetch.degree > 0)
        warmPrefetch(line_addr);
}

void
MemSystem::warmPrefetch(Addr line_addr)
{
    Cache &last = *_levels.back();
    const std::uint64_t line = last.params().lineBytes;
    for (std::uint32_t d = 1; d <= _params.prefetch.degree; ++d) {
        Addr target = line_addr + Addr(d) * line;
        if (last.contains(target))
            continue;
        _dram.warmTraffic(line, false);
        auto res = last.warmAccess(target, false);
        if (res.victimDirty)
            _dram.warmTraffic(line, true);
        ++_prefetches;
    }
}

void
MemSystem::warmAccess(Addr addr, std::uint64_t bytes, bool is_write)
{
    selfprof::Scope prof(selfprof::Domain::Cache);
    via_assert(bytes > 0, "zero-byte memory access");
    const std::uint64_t line = lineBytes();
    Addr first = addr & ~(Addr(line) - 1);
    Addr last = (addr + bytes - 1) & ~(Addr(line) - 1);
    // Stop at the last line itself: past the top line of the address
    // space, la + line wraps to 0.
    for (Addr la = first;; la += line) {
        warmLine(la, is_write);
        if (la == last)
            break;
    }
}

void
MemSystem::resetTiming()
{
    for (auto &lvl : _levels)
        lvl->resetTiming();
    _dram.resetTiming();
}

void
MemSystem::saveState(Serializer &ser) const
{
    ser.tag("MSYS");
    ser.put(std::uint64_t(_levels.size()));
    for (const auto &lvl : _levels)
        lvl->saveState(ser);
    _dram.saveState(ser);
    ser.put(_prefetches);
}

void
MemSystem::loadState(Deserializer &des)
{
    des.expectTag("MSYS");
    if (des.get<std::uint64_t>() != _levels.size())
        throw SerializeError("cache level count mismatch");
    for (auto &lvl : _levels)
        lvl->loadState(des);
    _dram.loadState(des);
    _prefetches = des.get<std::uint64_t>();
}

TraceComponent
MemSystem::levelComponent(std::size_t i)
{
    return i == 0 ? TraceComponent::CacheL1 : TraceComponent::CacheL2;
}

void
MemSystem::setTrace(TraceManager *trace)
{
    _trace = trace;
    for (std::size_t i = 0; i < _levels.size(); ++i)
        _levels[i]->setTrace(trace, levelComponent(i));
    _dram.setTrace(trace);
}

MemResult
MemSystem::access(Addr addr, std::uint64_t bytes, bool is_write,
                  Tick when)
{
    selfprof::Scope prof(selfprof::Domain::Cache);
    via_assert(bytes > 0, "zero-byte memory access");
    const std::uint64_t line = lineBytes();
    Addr first = addr & ~(Addr(line) - 1);
    Addr last = (addr + bytes - 1) & ~(Addr(line) - 1);

    // Element accesses rarely straddle a line boundary.
    if (first == last) [[likely]]
        return accessLine(first, is_write, when);

    MemResult worst{when, 0};
    for (Addr la = first;; la += line) {
        MemResult r = accessLine(la, is_write, when);
        if (r.complete > worst.complete)
            worst = r;
        if (la == last)
            break;
    }
    return worst;
}

void
MemSystem::registerStats(StatSet &stats) const
{
    for (std::size_t i = 0; i < _levels.size(); ++i) {
        const Cache &cache = *_levels[i];
        const CacheStats &cs = cache.stats();
        std::string prefix = "mem." + cache.params().name + ".";
        stats.addScalar(prefix + "reads", "read accesses", &cs.reads);
        stats.addScalar(prefix + "writes", "write accesses",
                        &cs.writes);
        stats.addScalar(prefix + "hits", "accesses served by the tags",
                        &cs.hits);
        stats.addScalar(prefix + "read_misses", "read misses",
                        &cs.readMisses);
        stats.addScalar(prefix + "write_misses", "write misses",
                        &cs.writeMisses);
        stats.addScalar(prefix + "mshr_merges",
                        "secondary misses merged with in-flight fills",
                        &cs.mshrMerges);
        stats.addScalar(prefix + "writebacks", "dirty evictions",
                        &cs.writebacks);
        stats.addFormula(prefix + "miss_rate",
                         "(misses + merges) / accesses",
                         [&cs] {
                             auto acc = cs.accesses();
                             return acc ? double(cs.demandMisses()) /
                                              double(acc)
                                        : 0.0;
                         });
    }
    // In shared-LLC mode the private DRAM and prefetcher serve no
    // traffic; their stats live on the shared level instead.
    if (_shared != nullptr)
        return;
    const DramStats &ds = _dram.stats();
    stats.addScalar("mem.dram.requests", "DRAM requests",
                    &ds.requests);
    stats.addScalar("mem.dram.bytes_read", "bytes read from DRAM",
                    &ds.bytesRead);
    stats.addScalar("mem.dram.bytes_written", "bytes written to DRAM",
                    &ds.bytesWritten);
    stats.addScalar("mem.dram.busy_cycles", "DRAM pipe busy cycles",
                    &ds.busyCycles);
    stats.addScalar("mem.dram.queue_cycles",
                    "cycles requests waited for the DRAM pipe",
                    &ds.queueCycles);
    stats.addScalar("mem.prefetches",
                    "lines fetched by the L2 prefetcher",
                    &_prefetches);
}

} // namespace via
