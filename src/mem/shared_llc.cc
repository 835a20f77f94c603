#include "mem/shared_llc.hh"

#include <algorithm>

#include "mem/mem_system.hh"
#include "simcore/log.hh"

namespace via
{

SharedLlcParams
SharedLlcParams::from(const MemSystemParams &mem, unsigned cores)
{
    via_assert(cores > 0, "shared LLC needs at least one core");
    SharedLlcParams p;
    p.cache = mem.levels.back();
    p.cache.name = "llc";
    p.cache.sizeBytes *= cores;
    p.cache.mshrs *= cores;
    p.dram = mem.dram;
    p.prefetch = mem.prefetch;
    return p;
}

SharedLlc::SharedLlc(const SharedLlcParams &params)
    : _params(params), _tags(params.cache), _dram(params.dram)
{
    via_assert(params.banks > 0, "LLC needs at least one bank");
    _banks.assign(params.banks, Resource(1));
    // The time-aware MSHR gate needs fill intervals (see
    // Cache::mshrFreeAt(Tick)); private caches skip the bookkeeping.
    _tags.trackFillSpans(true);
}

void
SharedLlc::attachCore(unsigned core_id, MemSystem *mem)
{
    via_assert(mem != nullptr, "null core hierarchy");
    via_assert(core_id == _cores.size(),
               "cores must attach densely in id order, got ",
               core_id, " after ", _cores.size());
    via_assert(core_id < 32, "directory sharer mask holds 32 cores");
    _cores.push_back(mem);
}

std::uint32_t
SharedLlc::bankOf(Addr line_addr) const
{
    Addr line = line_addr / _params.cache.lineBytes;
    return std::uint32_t(line % _banks.size());
}

bool
SharedLlc::invalidatePrivate(unsigned c, Addr line_addr)
{
    bool dirty = false;
    MemSystem &mem = *_cores[c];
    for (std::size_t i = 0; i < mem.numLevels(); ++i)
        dirty = mem.level(i).invalidate(line_addr) || dirty;
    return dirty;
}

SharedLlc::DirEntry &
SharedLlc::dirEntry(Addr line_addr)
{
    const std::uint64_t line = line_addr / _params.cache.lineBytes;
    const std::uint64_t pn = line / dirPageLines;
    if (pn != _dirPn) {
        auto &page = _dirPages[pn];
        if (!page)
            page = std::make_unique<DirEntry[]>(dirPageLines);
        _dirPn = pn;
        _dirPage = page.get();
    }
    return _dirPage[line % dirPageLines];
}

SharedLlc::DirEntry *
SharedLlc::findDirEntry(Addr line_addr)
{
    const std::uint64_t line = line_addr / _params.cache.lineBytes;
    const std::uint64_t pn = line / dirPageLines;
    if (pn != _dirPn) {
        auto it = _dirPages.find(pn);
        if (it == _dirPages.end())
            return nullptr;
        _dirPn = pn;
        _dirPage = it->second.get();
    }
    return &_dirPage[line % dirPageLines];
}

Tick
SharedLlc::coherenceActions(unsigned core, Addr line_addr,
                            bool is_write)
{
    DirEntry &e = dirEntry(line_addr);
    const std::uint32_t me = std::uint32_t(1) << core;
    Tick extra = 0;

    if (e.owner >= 0 && unsigned(e.owner) != core) {
        // A remote core holds the line modified: it writes the line
        // back into the LLC and forwards it (invalidate-on-forward,
        // the simple end of MESI). The requester pays the
        // core-to-core transfer latency.
        invalidatePrivate(unsigned(e.owner), line_addr);
        e.sharers &= ~(std::uint32_t(1) << unsigned(e.owner));
        e.owner = -1;
        ++_stats.invalidations;
        ++_stats.dirtyForwards;
        extra = _params.dirtyForwardLatency;
    }

    if (is_write) {
        // Invalidate every other sharer's private copies.
        std::uint32_t others = e.sharers & ~me;
        for (unsigned c = 0; others != 0; ++c, others >>= 1)
            if (others & 1) {
                invalidatePrivate(c, line_addr);
                ++_stats.invalidations;
            }
        e.sharers = me;
        e.owner = int(core);
    } else {
        e.sharers |= me;
        if (e.owner == int(core))
            e.owner = -1; // self downgrade: line now clean-shared
    }
    return extra;
}

void
SharedLlc::backInvalidate(Addr line_addr)
{
    DirEntry *e = findDirEntry(line_addr);
    if (e == nullptr)
        return;
    std::uint32_t sharers = e->sharers;
    for (unsigned c = 0; sharers != 0; ++c, sharers >>= 1)
        if (sharers & 1) {
            invalidatePrivate(c, line_addr);
            ++_stats.invalidations;
        }
    *e = DirEntry{};
}

Tick
SharedLlc::access(unsigned core, Addr line_addr, bool is_write,
                  Tick when)
{
    via_assert(core < _cores.size(), "access from unattached core ",
               core);
    bool tracing = _trace != nullptr && _trace->enabled();

    // Contention: the access holds its bank's pipe for one cycle.
    Tick start = _banks[bankOf(line_addr)].acquire(when);
    _stats.bankQueueCycles += start - when;

    Tick extra = coherenceActions(core, line_addr, is_write);
    // A dirty forward writes the owner's line back into the tags.
    if (extra > 0)
        _tags.access(line_addr, true);

    // Merge with an in-flight fill from any core (shared MSHRs) —
    // but only if that fill has actually issued by this request's
    // tick. Emission order across cores is not simulated-time
    // order: a core running ahead may have booked a fill that, from
    // this request's viewpoint, lies in the future. Stalling on it
    // would charge tens of thousands of phantom cycles; in time
    // order THIS request reaches memory first, so it fetches the
    // line itself and tightens the MSHR entry to the earlier fill.
    Tick inflight, inflight_issue;
    if (_tags.mshrLookup(line_addr, start, inflight,
                         inflight_issue)) {
        if (tracing) {
            TraceEvent ev;
            ev.kind = TraceEventKind::CacheMiss;
            ev.comp = TraceComponent::CacheL2;
            ev.start = ev.end = start;
            ev.a0 = line_addr;
            _trace->emit(ev);
        }
        _tags.mergeTouch(line_addr, is_write);
        if (inflight_issue <= start)
            return std::max(inflight,
                            start + _params.cache.hitLatency) +
                   extra;
        // In hardware this transfer happens once, at the earlier
        // time; the leading core's booking already paid the pipe
        // occupancy and byte counters, so the reordered fetch
        // charges only the idle-pipe latency instead of booking
        // (and double-counting) a second transfer.
        ++_stats.earlyFetches;
        Tick complete = std::max(start + _params.dram.latency,
                                 start + _params.cache.hitLatency);
        if (complete < inflight)
            _tags.mshrReserve(line_addr, complete, 0, start);
        return complete + extra;
    }

    auto res = _tags.access(line_addr, is_write);
    if (tracing) {
        TraceEvent ev;
        ev.kind = res.hit ? TraceEventKind::CacheHit
                          : TraceEventKind::CacheMiss;
        ev.comp = TraceComponent::CacheL2;
        ev.start = ev.end = start;
        ev.a0 = line_addr;
        _trace->emit(ev);
    }
    if (res.victimDirty) {
        _dram.serve(_params.cache.lineBytes, start, true);
        backInvalidate(res.victimLine);
    }

    if (res.hit)
        return start + _params.cache.hitLatency + extra;

    // Miss: gate on a shared MSHR, fill from the shared DRAM, and
    // prefetch the next lines behind the demand fill. The gate must
    // be the time-aware query: cores book the shared tags at
    // interleaved ticks, and the reservation-heap shortcut would
    // serialize a core behind the completions of whichever core
    // booked last (see Cache::mshrFreeAt(Tick)).
    Tick issue = _tags.mshrFreeAt(start);
    Tick fill = _dram.serve(_params.cache.lineBytes, issue, false);
    Tick complete =
        std::max(fill, issue + _params.cache.hitLatency);
    _tags.mshrReserve(line_addr, complete, issue - start, issue);

    const std::uint64_t line = _params.cache.lineBytes;
    for (std::uint32_t d = 1; d <= _params.prefetch.degree; ++d) {
        Addr target = line_addr + Addr(d) * line;
        Tick pf_inflight;
        if (_tags.contains(target) ||
            _tags.mshrLookup(target, issue, pf_inflight))
            continue;
        Tick pf_fill = _dram.serve(line, issue, false);
        auto pf = _tags.access(target, false);
        if (pf.victimDirty) {
            _dram.serve(line, pf_fill, true);
            backInvalidate(pf.victimLine);
        }
        _tags.mshrReserve(target, pf_fill, 0, issue);
        ++_prefetches;
    }
    return complete + extra;
}

void
SharedLlc::writeback(unsigned core, Addr line_addr, Tick when)
{
    via_assert(core < _cores.size(),
               "writeback from unattached core ", core);
    Tick start = _banks[bankOf(line_addr)].acquire(when);
    _stats.bankQueueCycles += start - when;

    // The evicting core loses its copy; the LLC copy becomes the
    // (dirty) home. No forward latency: nobody waits on a victim.
    DirEntry &e = dirEntry(line_addr);
    e.sharers &= ~(std::uint32_t(1) << core);
    if (e.owner == int(core))
        e.owner = -1;

    auto res = _tags.access(line_addr, true);
    if (res.victimDirty) {
        _dram.serve(_params.cache.lineBytes, start, true);
        backInvalidate(res.victimLine);
    }
}

void
SharedLlc::warmAccess(unsigned core, Addr line_addr, bool is_write)
{
    // Mirror the timed path's tag traffic, including the forward
    // writeback, so warm and detailed runs classify identically.
    if (coherenceActions(core, line_addr, is_write) > 0)
        _tags.warmAccess(line_addr, true);
    auto res = _tags.warmAccess(line_addr, is_write);
    if (res.victimDirty) {
        _dram.warmTraffic(_params.cache.lineBytes, true);
        backInvalidate(res.victimLine);
    }
    if (res.hit)
        return;
    _dram.warmTraffic(_params.cache.lineBytes, false);
    const std::uint64_t line = _params.cache.lineBytes;
    for (std::uint32_t d = 1; d <= _params.prefetch.degree; ++d) {
        Addr target = line_addr + Addr(d) * line;
        if (_tags.contains(target))
            continue;
        _dram.warmTraffic(line, false);
        auto pf = _tags.warmAccess(target, false);
        if (pf.victimDirty) {
            _dram.warmTraffic(line, true);
            backInvalidate(pf.victimLine);
        }
        ++_prefetches;
    }
}

void
SharedLlc::warmWriteback(unsigned core, Addr line_addr)
{
    DirEntry &e = dirEntry(line_addr);
    e.sharers &= ~(std::uint32_t(1) << core);
    if (e.owner == int(core))
        e.owner = -1;
    auto res = _tags.warmAccess(line_addr, true);
    if (res.victimDirty) {
        _dram.warmTraffic(_params.cache.lineBytes, true);
        backInvalidate(res.victimLine);
    }
}

void
SharedLlc::resetTiming()
{
    _tags.resetTiming();
    _dram.resetTiming();
    for (Resource &bank : _banks)
        bank.resetTiming();
}

void
SharedLlc::setTrace(TraceManager *trace)
{
    _trace = trace;
    _tags.setTrace(trace, TraceComponent::CacheL2);
    _dram.setTrace(trace);
}

void
SharedLlc::registerStats(StatSet &stats) const
{
    const CacheStats &cs = _tags.stats();
    stats.addScalar("llc.reads", "read accesses", &cs.reads);
    stats.addScalar("llc.writes", "write accesses", &cs.writes);
    stats.addScalar("llc.hits", "accesses served by the tags",
                    &cs.hits);
    stats.addScalar("llc.read_misses", "read misses", &cs.readMisses);
    stats.addScalar("llc.write_misses", "write misses",
                    &cs.writeMisses);
    stats.addScalar("llc.mshr_merges",
                    "secondary misses merged with in-flight fills",
                    &cs.mshrMerges);
    stats.addScalar("llc.writebacks", "dirty evictions",
                    &cs.writebacks);
    stats.addFormula("llc.miss_rate", "(misses + merges) / accesses",
                     [&cs] {
                         auto acc = cs.accesses();
                         return acc ? double(cs.demandMisses()) /
                                          double(acc)
                                    : 0.0;
                     });
    stats.addScalar("llc.invalidations",
                    "private copies dropped by coherence",
                    &_stats.invalidations);
    stats.addScalar("llc.dirty_forwards",
                    "modified lines forwarded core-to-core",
                    &_stats.dirtyForwards);
    stats.addScalar("llc.bank_queue_cycles",
                    "cycles accesses waited for a bank pipe",
                    &_stats.bankQueueCycles);
    stats.addScalar("llc.mshr_stall_cycles",
                    "cycles misses waited for a shared MSHR",
                    &cs.mshrStallCycles);
    stats.addScalar("llc.early_fetches",
                    "merges refused because the fill issues later",
                    &_stats.earlyFetches);
    stats.addScalar("llc.prefetches",
                    "lines fetched by the LLC prefetcher",
                    &_prefetches);

    const DramStats &ds = _dram.stats();
    stats.addScalar("dram.requests", "shared DRAM requests",
                    &ds.requests);
    stats.addScalar("dram.bytes_read", "bytes read from shared DRAM",
                    &ds.bytesRead);
    stats.addScalar("dram.bytes_written",
                    "bytes written to shared DRAM", &ds.bytesWritten);
    stats.addScalar("dram.busy_cycles", "shared DRAM pipe busy cycles",
                    &ds.busyCycles);
    stats.addScalar("dram.queue_cycles",
                    "cycles requests waited for the shared DRAM pipe",
                    &ds.queueCycles);
}

} // namespace via
