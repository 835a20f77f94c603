#include "check/invariants.hh"

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "cpu/machine.hh"
#include "simcore/log.hh"
#include "trace/summary.hh"

namespace via
{
namespace check
{

bool
envEnabled()
{
    const char *v = std::getenv("VIA_CHECK");
    if (v == nullptr)
        return false;
    std::string s(v);
    for (char &c : s)
        c = char(std::tolower(static_cast<unsigned char>(c)));
    return s == "1" || s == "on" || s == "true" || s == "yes";
}

TimingInvariantChecker::TimingInvariantChecker(Machine &machine)
    : _machine(machine)
{
    _machine.core().addTimingObserver(this);
}

TimingInvariantChecker::~TimingInvariantChecker()
{
    _machine.core().removeTimingObserver(this);
}

void
TimingInvariantChecker::fail(const char *invariant,
                             std::string detail)
{
    ++_violationCount;
    if (_violations.size() < maxRecorded)
        _violations.push_back(Violation{invariant, std::move(detail)});
}

void
TimingInvariantChecker::onInstTiming(const Inst &inst,
                                     const InstTiming &t)
{
    ++_instsSeen;

    auto detail = [&] {
        std::ostringstream os;
        os << mnemonic(inst.op) << " seq=" << inst.seq
           << " dispatch=" << t.dispatch << " issue=" << t.issue
           << " complete=" << t.complete << " commit=" << t.commit;
        return os.str();
    };

    if (!(t.dispatch <= t.issue && t.issue <= t.complete &&
          t.complete <= t.commit))
        fail("inst-monotone", detail());

    if (t.commit < _lastCommit)
        fail("commit-order",
             detail() + " < previous commit " +
                 std::to_string(_lastCommit));
    _lastCommit = t.commit;
}

void
TimingInvariantChecker::onTimingReset()
{
    _lastCommit = 0;
    _timingReset = true;
}

void
TimingInvariantChecker::checkCaches()
{
    MemSystem &mem = _machine.memSystem();
    for (std::size_t i = 0; i < mem.numLevels(); ++i) {
        const Cache &cache = mem.level(i);
        const CacheStats &cs = cache.stats();
        std::uint64_t classified =
            cs.hits + cs.misses() + cs.mshrMerges;
        if (cs.accesses() != classified) {
            std::ostringstream os;
            os << cache.params().name << ": accesses "
               << cs.accesses() << " != hits " << cs.hits
               << " + misses " << cs.misses() << " + merges "
               << cs.mshrMerges;
            fail("cache-accounting", os.str());
        }
    }
}

void
TimingInvariantChecker::checkDram()
{
    const Dram &dram = _machine.memSystem().dram();
    const DramStats &ds = dram.stats();
    if (ds.busyCycles != dram.pipeBusy()) {
        std::ostringstream os;
        os << "busy_cycles " << ds.busyCycles
           << " != pipe bookings " << dram.pipeBusy();
        fail("dram-busy-reconcile", os.str());
    }
    // The pipe has width 1, so cumulative busy time can never exceed
    // the furthest cycle ever booked. The horizon resets with timing
    // (busy does not), so the bound only holds reset-free.
    if (!_timingReset && ds.busyCycles > dram.pipeHorizon()) {
        std::ostringstream os;
        os << "busy_cycles " << ds.busyCycles
           << " > pipe horizon " << dram.pipeHorizon();
        fail("dram-busy-bound", os.str());
    }
}

void
TimingInvariantChecker::checkCam()
{
    const Sspm &sspm = _machine.sspm();
    const IndexTable &table = sspm.indexTable();
    const IndexTableStats &its = table.stats();
    const SspmStats &ss = sspm.stats();
    std::uint32_t bank = sspm.config().bankEntries;

    if (its.comparisons != its.banksSearched * bank) {
        std::ostringstream os;
        os << "comparisons " << its.comparisons
           << " != banks_searched " << its.banksSearched << " x "
           << bank << " bank entries";
        fail("cam-comparators", os.str());
    }
    if (its.hits > its.searches)
        fail("cam-hits-bound",
             "hits " + std::to_string(its.hits) + " > searches " +
                 std::to_string(its.searches));
    if (its.inserts > its.searches)
        fail("cam-inserts-bound",
             "inserts " + std::to_string(its.inserts) +
                 " > searches " + std::to_string(its.searches));
    // Inserts minus clears bounds the live count: every tracked key
    // was inserted after the last clear.
    if (table.count() > its.inserts)
        fail("cam-live-count",
             "live count " + std::to_string(table.count()) +
                 " > lifetime inserts " +
                 std::to_string(its.inserts));
    if (table.count() > table.capacity())
        fail("cam-capacity",
             "live count " + std::to_string(table.count()) +
                 " > capacity " + std::to_string(table.capacity()));

    // Every CAM-mode SSPM write searches the table (findOrInsert);
    // reads search unless they ride an update's search, so searches
    // land between the write count and total CAM traffic.
    if (ss.camWrites > its.searches ||
        its.searches > ss.camReads + ss.camWrites) {
        std::ostringstream os;
        os << "searches " << its.searches << " outside [cam_writes "
           << ss.camWrites << ", cam_reads + cam_writes "
           << ss.camReads + ss.camWrites << "]";
        fail("sspm-cam-traffic", os.str());
    }
}

void
TimingInvariantChecker::checkFivu()
{
    const FivuStats &fs = _machine.fivu().stats();
    if (fs.busyCycles < fs.sspmReadCycles + fs.sspmWriteCycles) {
        std::ostringstream os;
        os << "busy " << fs.busyCycles << " < read phases "
           << fs.sspmReadCycles << " + write phases "
           << fs.sspmWriteCycles;
        fail("fivu-occupancy", os.str());
    }
}

void
TimingInvariantChecker::checkWindows()
{
    // A booking behind a window base is moved up to the base, which
    // delays it. A single core books inside the window's slack; the
    // cores of a multi-core machine do not yet (ROADMAP), so the
    // check covers the machines without a shared LLC.
    if (_machine.memSystem().shared() != nullptr)
        return;
    std::uint64_t clamps = _machine.core().windowClamps() +
                           _machine.memSystem().dram().pipeClamps() +
                           _machine.fivu().portClamps() +
                           _machine.backend().windowClamps();
    if (clamps != 0)
        fail("window-clamp",
             std::to_string(clamps) +
                 " bookings moved up to a resource window base");
}

void
TimingInvariantChecker::checkCore()
{
    const OoOCore &core = _machine.core();
    // Commit is in order and no earlier than completion, so the
    // final commit front covers every completion ever scheduled.
    if (core.finishTick() < core.lastComplete()) {
        std::ostringstream os;
        os << "commit front " << core.finishTick()
           << " < last completion " << core.lastComplete();
        fail("core-drain", os.str());
    }
}

void
TimingInvariantChecker::checkTrace()
{
    const TraceManager *trace = _machine.trace();
    if (trace == nullptr || !trace->enabled())
        return;
    Tick total = _machine.cycles();
    TraceSummary summary = summarizeTrace(*trace, total);
    for (std::size_t c = 0;
         c < std::size_t(TraceComponent::COUNT); ++c) {
        const ComponentSummary &cs = summary.comps[c];
        if (cs.busy + cs.idle != total || cs.busy > total) {
            std::ostringstream os;
            os << "component " << c << ": busy " << cs.busy
               << " + idle " << cs.idle << " != total " << total;
            fail("trace-busy-idle", os.str());
        }
    }
}

void
TimingInvariantChecker::finalize()
{
    if (_finalized)
        return;
    _finalized = true;
    checkCaches();
    checkDram();
    checkCam();
    checkFivu();
    checkWindows();
    checkCore();
    checkTrace();
}

bool
TimingInvariantChecker::checkAll()
{
    finalize();
    return ok();
}

std::string
TimingInvariantChecker::report() const
{
    std::ostringstream os;
    os << "invariant violations: " << _violationCount << " ("
       << _instsSeen << " insts observed)\n";
    for (const Violation &v : _violations)
        os << "  [" << v.invariant << "] " << v.detail << "\n";
    if (_violationCount > _violations.size())
        os << "  ... " << (_violationCount - _violations.size())
           << " more not recorded\n";
    return os.str();
}

void
TimingInvariantChecker::checkOrDie()
{
    finalize();
    if (ok())
        return;
    std::fputs(report().c_str(), stderr);
    via_fatal("timing invariant check failed (",
              _violationCount, " violations)");
}

} // namespace check
} // namespace via
