#include "mem/cache.hh"

#include <algorithm>
#include <functional>

#include "simcore/log.hh"
#include "simcore/serialize.hh"

namespace via
{

Cache::Cache(const CacheParams &params)
    : _params(params)
{
    via_assert(params.lineBytes &&
                   (params.lineBytes & (params.lineBytes - 1)) == 0,
               "line size must be a power of two");
    via_assert(params.assoc > 0, "associativity must be positive");
    std::uint64_t lines = params.sizeBytes / params.lineBytes;
    via_assert(lines % params.assoc == 0,
               "cache geometry does not divide evenly: ", lines,
               " lines, assoc ", params.assoc);
    _numSets = lines / params.assoc;
    via_assert(_numSets > 0, "cache too small for one set");
    while ((std::uint32_t(1) << _lineShift) < params.lineBytes)
        ++_lineShift;
    _setsPow2 = (_numSets & (_numSets - 1)) == 0;
    _lines.resize(lines);
    _mshrBusyUntil.assign(params.mshrs, 0);
}

Cache::LookupResult
Cache::access(Addr line_addr, bool is_write)
{
    via_assert((line_addr & (_params.lineBytes - 1)) == 0,
               "unaligned line address");
    if (is_write)
        ++_stats.writes;
    else
        ++_stats.reads;

    Line *set = &_lines[setIndex(line_addr) * _params.assoc];
    Line *victim = set;
    for (std::uint32_t way = 0; way < _params.assoc; ++way) {
        Line &line = set[way];
        if (line.valid && line.tag == line_addr) {
            line.lruStamp = ++_lruClock;
            line.dirty = line.dirty || is_write;
            ++_stats.hits;
            return LookupResult{true, false, 0};
        }
        // Prefer invalid ways, then the least recently used one.
        if (!victim->valid)
            continue;
        if (!line.valid || line.lruStamp < victim->lruStamp)
            victim = &set[way];
    }

    if (is_write)
        ++_stats.writeMisses;
    else
        ++_stats.readMisses;

    LookupResult res;
    res.hit = false;
    if (victim->valid && victim->dirty) {
        res.victimDirty = true;
        res.victimLine = victim->tag;
        ++_stats.writebacks;
    }
    victim->valid = true;
    victim->tag = line_addr;
    victim->dirty = is_write;
    victim->lruStamp = ++_lruClock;
    return res;
}

void
Cache::mergeTouch(Addr line_addr, bool is_write)
{
    via_assert((line_addr & (_params.lineBytes - 1)) == 0,
               "unaligned line address");
    if (is_write)
        ++_stats.writes;
    else
        ++_stats.reads;
    ++_stats.mshrMerges;

    // The primary miss pre-installed the tag; refresh its recency
    // and dirty state. If it was since evicted the merge still
    // completes off the in-flight fill, so nothing else to do.
    Line *set = &_lines[setIndex(line_addr) * _params.assoc];
    for (std::uint32_t way = 0; way < _params.assoc; ++way) {
        Line &line = set[way];
        if (line.valid && line.tag == line_addr) {
            line.lruStamp = ++_lruClock;
            line.dirty = line.dirty || is_write;
            return;
        }
    }
}

bool
Cache::contains(Addr line_addr) const
{
    const Line *set = &_lines[setIndex(line_addr) * _params.assoc];
    for (std::uint32_t way = 0; way < _params.assoc; ++way)
        if (set[way].valid && set[way].tag == line_addr)
            return true;
    return false;
}

bool
Cache::containsDirty(Addr line_addr) const
{
    const Line *set = &_lines[setIndex(line_addr) * _params.assoc];
    for (std::uint32_t way = 0; way < _params.assoc; ++way)
        if (set[way].valid && set[way].tag == line_addr)
            return set[way].dirty;
    return false;
}

bool
Cache::invalidate(Addr line_addr)
{
    Line *set = &_lines[setIndex(line_addr) * _params.assoc];
    for (std::uint32_t way = 0; way < _params.assoc; ++way) {
        Line &line = set[way];
        if (line.valid && line.tag == line_addr) {
            bool dirty = line.dirty;
            line = Line{};
            return dirty;
        }
    }
    return false;
}

bool
Cache::mshrLookup(Addr line_addr, Tick when, Tick &complete) const
{
    // An entry whose completion is in the past is a fill that
    // already landed, not an in-flight miss. It is reclaimed by the
    // horizon sweep in mshrReserve; a const lookup never mutates.
    auto it = _inflight.find(line_addr);
    if (it == _inflight.end() || it->second.complete <= when)
        return false;
    complete = it->second.complete;
    return true;
}

bool
Cache::mshrLookup(Addr line_addr, Tick when, Tick &complete,
                  Tick &issue) const
{
    auto it = _inflight.find(line_addr);
    if (it == _inflight.end() || it->second.complete <= when)
        return false;
    complete = it->second.complete;
    issue = it->second.issue;
    return true;
}

Tick
Cache::mshrFreeAt() const
{
    return _mshrBusyUntil[0];
}

Tick
Cache::mshrFreeAt(Tick when) const
{
    const std::size_t cap = _mshrBusyUntil.size();
    // A fill occupies an MSHR over [issue, complete): an interval
    // booked entirely in the future holds no slot at `when`. The
    // ring is bounded (4 x cap), so the scan is cheap.
    std::vector<Tick> live;
    live.reserve(cap);
    for (const auto &f : _recentFills)
        if (f.issue <= when && when < f.complete)
            live.push_back(f.complete);
    if (live.size() < cap)
        return when;
    // A slot frees once the in-flight count drops below capacity:
    // at the (live - cap + 1)-th earliest completion.
    std::size_t k = live.size() - cap;
    std::nth_element(live.begin(),
                     live.begin() + std::ptrdiff_t(k), live.end());
    return live[k];
}

void
Cache::mshrReserve(Addr line_addr, Tick complete, Tick stall,
                   Tick issue)
{
    // _mshrBusyUntil is a min-heap: replace the root (the earliest
    // free slot) and sift it down.
    std::size_t i = 0;
    const std::size_t n = _mshrBusyUntil.size();
    for (;;) {
        std::size_t kid = 2 * i + 1;
        if (kid >= n)
            break;
        if (kid + 1 < n &&
            _mshrBusyUntil[kid + 1] < _mshrBusyUntil[kid])
            ++kid;
        if (_mshrBusyUntil[kid] >= complete)
            break;
        _mshrBusyUntil[i] = _mshrBusyUntil[kid];
        i = kid;
    }
    _mshrBusyUntil[i] = complete;

    _inflight[line_addr] = Inflight{complete,
                                    std::min(issue, complete)};
    if (complete > _inflightHorizon)
        _inflightHorizon = complete;
    _stats.mshrStallCycles += stall;

    // Record the occupancy interval for mshrFreeAt(Tick). The ring
    // overwrites oldest-first; fills evicted while still live make
    // the query optimistic, never more conservative.
    if (_trackFills) {
        if (_recentFills.empty())
            _recentFills.reserve(4 * n);
        FillSpan span{std::min(issue, complete), complete};
        if (_recentFills.size() < 4 * n) {
            _recentFills.push_back(span);
        } else {
            _recentFills[_fillNext] = span;
            _fillNext = (_fillNext + 1) % _recentFills.size();
        }
    }

    if (_trace != nullptr && _trace->enabled()) {
        TraceEvent ev;
        ev.kind = TraceEventKind::MshrAlloc;
        ev.comp = _traceComp;
        ev.start = std::min(issue, complete);
        ev.end = complete;
        ev.a0 = line_addr;
        ev.a1 = stall;
        _trace->emit(ev);
    }
    // Bound the inflight map: drop entries that completed long ago.
    if (_inflight.size() > 4 * _mshrBusyUntil.size())
        pruneInflight(mshrFreeAt());
}

void
Cache::pruneInflight(Tick horizon)
{
    for (auto it = _inflight.begin(); it != _inflight.end();) {
        if (it->second.complete <= horizon)
            it = _inflight.erase(it);
        else
            ++it;
    }
}

void
Cache::resetTiming()
{
    _inflight.clear();
    _inflightHorizon = 0;
    std::fill(_mshrBusyUntil.begin(), _mshrBusyUntil.end(), Tick(0));
    _recentFills.clear();
    _fillNext = 0;
}

void
Cache::saveState(Serializer &ser) const
{
    ser.tag("CACH");
    ser.put(_params.sizeBytes);
    ser.put(_params.assoc);
    ser.put(_params.lineBytes);
    ser.put(std::uint32_t(_mshrBusyUntil.size()));

    ser.put(std::uint64_t(_lines.size()));
    for (const Line &line : _lines) {
        ser.put(line.tag);
        ser.put(std::uint8_t((line.valid ? 1 : 0) |
                             (line.dirty ? 2 : 0)));
        ser.put(line.lruStamp);
    }
    ser.put(_lruClock);

    ser.put(_stats.reads);
    ser.put(_stats.writes);
    ser.put(_stats.hits);
    ser.put(_stats.readMisses);
    ser.put(_stats.writeMisses);
    ser.put(_stats.mshrMerges);
    ser.put(_stats.writebacks);
    ser.put(_stats.mshrStallCycles);

    // Sorted by address so the byte stream does not depend on the
    // hash map's iteration order.
    std::vector<std::pair<Addr, Tick>> inflight;
    inflight.reserve(_inflight.size());
    for (const auto &[addr, entry] : _inflight)
        inflight.push_back({addr, entry.complete});
    std::sort(inflight.begin(), inflight.end());
    ser.put(std::uint64_t(inflight.size()));
    for (const auto &[addr, complete] : inflight) {
        ser.put(addr);
        ser.put(complete);
    }
    ser.putVec(_mshrBusyUntil);
}

void
Cache::loadState(Deserializer &des)
{
    des.expectTag("CACH");
    if (des.get<std::uint64_t>() != _params.sizeBytes ||
        des.get<std::uint32_t>() != _params.assoc ||
        des.get<std::uint32_t>() != _params.lineBytes ||
        des.get<std::uint32_t>() != _mshrBusyUntil.size())
        throw SerializeError("cache geometry mismatch (" +
                             _params.name + ")");

    std::uint64_t n = des.get();
    if (n != _lines.size())
        throw SerializeError("cache line count mismatch");
    for (Line &line : _lines) {
        line.tag = des.get<Addr>();
        auto flags = des.get<std::uint8_t>();
        line.valid = (flags & 1) != 0;
        line.dirty = (flags & 2) != 0;
        line.lruStamp = des.get<std::uint64_t>();
    }
    _lruClock = des.get<std::uint64_t>();

    _stats.reads = des.get<std::uint64_t>();
    _stats.writes = des.get<std::uint64_t>();
    _stats.hits = des.get<std::uint64_t>();
    _stats.readMisses = des.get<std::uint64_t>();
    _stats.writeMisses = des.get<std::uint64_t>();
    _stats.mshrMerges = des.get<std::uint64_t>();
    _stats.writebacks = des.get<std::uint64_t>();
    _stats.mshrStallCycles = des.get<std::uint64_t>();

    std::uint64_t inflight = des.get();
    _inflight.clear();
    _inflightHorizon = 0;
    for (std::uint64_t i = 0; i < inflight; ++i) {
        Addr addr = des.get<Addr>();
        Tick complete = des.get<Tick>();
        _inflight[addr] = Inflight{complete, 0};
        if (complete > _inflightHorizon)
            _inflightHorizon = complete;
    }
    auto mshrs = des.getVec<Tick>();
    if (mshrs.size() != _mshrBusyUntil.size())
        throw SerializeError("MSHR count mismatch");
    _mshrBusyUntil = std::move(mshrs);
    // Timing depends only on the multiset of busy times; restore the
    // heap invariant regardless of the order the file stored.
    std::make_heap(_mshrBusyUntil.begin(), _mshrBusyUntil.end(),
                   std::greater<Tick>());
}

} // namespace via
