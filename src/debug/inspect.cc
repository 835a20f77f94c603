#include "debug/inspect.hh"

#include <cinttypes>
#include <cstdio>
#include <string>

#include "cpu/machine.hh"
#include "cpu/ooo_core.hh"
#include "mem/mem_system.hh"
#include "simcore/fnv.hh"
#include "simcore/stats.hh"
#include "via/sspm.hh"

namespace via::debug
{

namespace
{

/** Fixed-format double rendering shared with the fingerprint. */
std::string
num(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

} // namespace

void
infoRob(std::ostream &os, const Machine &m)
{
    const OoOCore &core = m.core();
    const RobModel &rob = core.rob();
    const InstTiming &t = core.lastTiming();
    os << "rob: size " << rob.size() << ", pushed " << rob.count()
       << ", commit front " << rob.commitFront() << "\n";
    os << "  occupancy at last dispatch (" << t.dispatch
       << "): " << rob.occupancyAt(t.dispatch) << "\n";
    os << "  occupancy at last commit (" << t.commit
       << "): " << rob.occupancyAt(t.commit) << "\n";
}

void
infoLsq(std::ostream &os, const Machine &m)
{
    const OoOCore &core = m.core();
    const SlotPool &lq = core.loadQueue();
    const SlotPool &sq = core.storeQueue();
    const InstTiming &t = core.lastTiming();
    os << "lq: " << lq.busyAt(t.issue) << "/" << lq.size()
       << " busy at last issue (" << t.issue << "), next free at "
       << lq.freeAt() << "\n";
    os << "sq: " << sq.busyAt(t.issue) << "/" << sq.size()
       << " busy at last issue, next free at " << sq.freeAt()
       << "\n";
    os << "store-forward conflicts: " << core.stores().conflicts()
       << "\n";
}

void
infoSspm(std::ostream &os, const Machine &m)
{
    const Sspm &s = m.sspm();
    const SspmStats &st = s.stats();
    os << "sspm: " << s.validCount() << "/"
       << s.config().sramEntries() << " valid words ("
       << s.config().sspmBytes << " B, " << s.config().valueBytes
       << " B/word)\n";
    os << "  direct reads " << st.directReads << " (invalid "
       << st.invalidReads << "), direct writes " << st.directWrites
       << "\n";
    os << "  cam reads " << st.camReads << ", cam writes "
       << st.camWrites << ", bitmap clears " << st.bitmapClears
       << "\n";
}

void
infoCam(std::ostream &os, const Machine &m)
{
    const Sspm &s = m.sspm();
    const IndexTableStats &st = s.indexTable().stats();
    os << "cam: " << s.count() << "/" << s.config().camEntries()
       << " entries" << (s.camFull() ? " (full)" : "") << "\n";
    os << "  searches " << st.searches << " (hits " << st.hits
       << "), inserts " << st.inserts << ", overflows "
       << st.overflows << "\n";
    os << "  comparisons " << st.comparisons << ", banks searched "
       << st.banksSearched << ", clears " << st.clears << "\n";
}

void
infoCache(std::ostream &os, const Machine &m, Addr addr)
{
    const MemSystem &mem = m.memSystem();
    const std::uint32_t line = mem.lineBytes();
    const Addr line_addr = addr - addr % line;
    char hdr[64];
    std::snprintf(hdr, sizeof(hdr), "line 0x%" PRIx64 ":",
                  (std::uint64_t)line_addr);
    os << hdr << "\n";
    for (std::size_t i = 0; i < mem.numLevels(); ++i) {
        const Cache &c = mem.level(i);
        os << "  " << c.params().name << ": ";
        if (c.containsDirty(line_addr))
            os << "present (dirty)";
        else if (c.contains(line_addr))
            os << "present (clean)";
        else
            os << "absent";
        Tick complete = 0;
        if (c.mshrLookup(line_addr, m.cycles(), complete))
            os << ", miss in flight (completes " << complete << ")";
        os << "\n";
    }
}

void
infoBackend(std::ostream &os, const Machine &m)
{
    const CoreStats &st = m.core().stats();
    os << "backend: " << backendName(m.backendKind()) << "\n";
    os << "  insts " << st.insts << " (scalar " << st.scalarInsts
       << ", vector " << st.vectorInsts << ", accel "
       << st.viaInsts << ", mem " << st.memInsts << ")\n";
    os << "  cache accesses " << st.cacheAccesses
       << ", gathered elements " << st.gatherElements
       << ", branches " << st.branches << " (mispredicts "
       << st.mispredicts << ")\n";
}

void
infoStats(std::ostream &os, const Machine &m)
{
    // dump() sorts by name and is byte-stable across runs.
    m.stats().dump(os);
}

std::uint64_t
statsFingerprint(const StatSet &stats)
{
    std::string text;
    for (const std::string &name : stats.names())
        text += name + "=" + num(stats.get(name)) + ";";
    return fnv1a64(text);
}

} // namespace via::debug
