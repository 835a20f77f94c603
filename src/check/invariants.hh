/**
 * @file
 * Timing-model invariant checking (the validation subsystem).
 *
 * TimingInvariantChecker attaches to a Machine as a TimingObserver
 * and verifies, per instruction and at end of run, a catalog of
 * internal-consistency invariants the analytic timing model must
 * uphold (see docs/validation.md for the full list):
 *
 *   - per-instruction lifecycle ticks are monotone
 *     (dispatch <= issue <= complete <= commit),
 *   - commit ticks are monotone across instructions (in-order
 *     commit),
 *   - every cache access is classified exactly once
 *     (accesses == hits + misses + MSHR merges, per level),
 *   - DRAM busy cycles reconcile with the pipe's bookings exactly,
 *     and never exceed the pipe's booked horizon,
 *   - CAM counters reconcile (comparisons == banks x bank size;
 *     hits/inserts bounded by searches; live count bounded by
 *     inserts and capacity),
 *   - SSPM traffic and CAM searches agree
 *     (camWrites <= searches <= camReads + camWrites),
 *   - FIVU occupancy covers its SSPM port phases,
 *   - on a single core, no resource booking asked for a cycle behind
 *     its window base (which would move it up to the base),
 *   - trace roll-up busy + idle == run cycles per component.
 *
 * The checker is observation-only: it never feeds anything back into
 * the schedule, so timing with and without it attached is
 * bit-identical. Set VIA_CHECK=1 in the environment to auto-attach a
 * checker to every Machine; its checks then run in the Machine
 * destructor and abort the process on violation, which turns every
 * existing test binary into an invariant regression net.
 */

#ifndef VIA_CHECK_INVARIANTS_HH
#define VIA_CHECK_INVARIANTS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "cpu/ooo_core.hh"
#include "simcore/types.hh"

namespace via
{

class Machine;

namespace check
{

/** True when VIA_CHECK is set to 1/on/true in the environment. */
bool envEnabled();

/** One recorded invariant violation. */
struct Violation
{
    std::string invariant; //!< short stable name, e.g. "inst-monotone"
    std::string detail;    //!< human-readable specifics
};

/** Machine-wide timing/counter invariant checker. */
class TimingInvariantChecker : public TimingObserver
{
  public:
    /** Attach to @p machine's core; detaches in the destructor. */
    explicit TimingInvariantChecker(Machine &machine);
    ~TimingInvariantChecker() override;

    TimingInvariantChecker(const TimingInvariantChecker &) = delete;
    TimingInvariantChecker &
    operator=(const TimingInvariantChecker &) = delete;

    // --- TimingObserver -------------------------------------------
    void onInstTiming(const Inst &inst,
                      const InstTiming &timing) override;
    void onTimingReset() override;

    // --- end-of-run checks ----------------------------------------

    /**
     * Run the aggregate (counter-reconciliation) checks against the
     * machine's current statistics. Idempotent: repeated calls do
     * not duplicate violations.
     */
    void finalize();

    /** finalize() and return whether no invariant was violated. */
    bool checkAll();

    /**
     * finalize() and, on violation, print the report to stderr and
     * exit — called from ~Machine when VIA_CHECK is set.
     */
    void checkOrDie();

    bool ok() const { return _violations.empty(); }
    const std::vector<Violation> &
    violations() const
    {
        return _violations;
    }
    /** Violations observed in total (recording caps at a limit). */
    std::uint64_t violationCount() const { return _violationCount; }
    std::uint64_t instsSeen() const { return _instsSeen; }

    /** Multi-line description of every recorded violation. */
    std::string report() const;

  private:
    void fail(const char *invariant, std::string detail);

    void checkCaches();
    void checkDram();
    void checkCam();
    void checkFivu();
    void checkWindows();
    void checkCore();
    void checkTrace();

    /** Cap on recorded (not counted) violations. */
    static constexpr std::size_t maxRecorded = 16;

    Machine &_machine;
    std::vector<Violation> _violations;
    std::uint64_t _violationCount = 0;
    std::uint64_t _instsSeen = 0;
    Tick _lastCommit = 0;
    /** A timing reset happened: skip cross-reset bound checks. */
    bool _timingReset = false;
    bool _finalized = false;
};

} // namespace check
} // namespace via

#endif // VIA_CHECK_INVARIANTS_HH
