#include "via/fivu.hh"

#include <algorithm>

#include "simcore/log.hh"
#include "simcore/selfprof.hh"
#include "simcore/serialize.hh"

namespace via
{

Tick
Fivu::bookPorts(Tick when, std::uint32_t elems)
{
    // Element moves share the SSPM ports; consecutive VIA
    // instructions pipeline through the pre/post-processing stages,
    // so the ports behave as a bandwidth resource, not a lock.
    return _ports.acquireRun(when, elems, _config.ports) + 1;
}

Fivu::Timing
Fivu::dispatch(const Inst &inst, Tick ready_at, const OpLatencies &lat)
{
    selfprof::Scope prof(selfprof::Domain::Fivu);
    via_assert(inst.isVia(), "non-VIA inst dispatched to the FIVU: ",
               mnemonic(inst.op));

    Tick exec = lat.latencyOf(inst.op);

    // One VIA instruction enters the FIVU per cycle (issue stage);
    // its SSPM phases contend for ports with its neighbours.
    Tick start = std::max(ready_at, _nextFree);
    _nextFree = start + 1;

    Tick read_done = inst.sspmReads
                         ? bookPorts(start, inst.sspmReads)
                         : start + 1;
    Tick exec_done = read_done + exec;
    Tick complete = inst.sspmWrites
                        ? bookPorts(exec_done, inst.sspmWrites)
                        : exec_done;

    ++_stats.viaInsts;
    _stats.busyCycles += complete - start;
    _stats.sspmReadCycles += portCycles(inst.sspmReads);
    _stats.sspmWriteCycles += portCycles(inst.sspmWrites);

    if (_trace != nullptr && _trace->enabled()) {
        auto span = [&](TraceEventKind kind, TraceComponent comp,
                        Tick lo, Tick hi, std::uint64_t a0) {
            TraceEvent ev;
            ev.kind = kind;
            ev.comp = comp;
            ev.op = inst.op;
            ev.start = lo;
            ev.end = hi;
            ev.a0 = a0;
            _trace->emit(ev);
        };
        span(TraceEventKind::FivuBusy, TraceComponent::Fivu, start,
             complete, inst.seq);
        if (inst.sspmReads)
            span(TraceEventKind::SspmReadPhase, TraceComponent::Sspm,
                 start, read_done, inst.sspmReads);
        if (inst.sspmWrites)
            span(TraceEventKind::SspmWritePhase,
                 TraceComponent::Sspm, exec_done, complete,
                 inst.sspmWrites);
        // A phase spanning more than one port cycle means lanes
        // serialized on the SSPM banks.
        Tick extra = portCycles(inst.sspmReads) +
                     portCycles(inst.sspmWrites);
        extra -= (inst.sspmReads ? 1 : 0) +
                 (inst.sspmWrites ? 1 : 0);
        if (extra > 0)
            span(TraceEventKind::SspmPortConflict,
                 TraceComponent::Sspm, complete, complete, extra);
    }
    return Timing{start, complete};
}

void
Fivu::saveState(Serializer &ser) const
{
    ser.tag("FIVU");
    ser.put(_nextFree);
    _ports.saveState(ser);
    ser.put(_stats.viaInsts);
    ser.put(_stats.busyCycles);
    ser.put(_stats.sspmReadCycles);
    ser.put(_stats.sspmWriteCycles);
}

void
Fivu::loadState(Deserializer &des)
{
    des.expectTag("FIVU");
    _nextFree = des.get<Tick>();
    _ports.loadState(des);
    _stats.viaInsts = des.get<std::uint64_t>();
    _stats.busyCycles = des.get<std::uint64_t>();
    _stats.sspmReadCycles = des.get<std::uint64_t>();
    _stats.sspmWriteCycles = des.get<std::uint64_t>();
}

} // namespace via
