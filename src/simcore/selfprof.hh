/**
 * @file
 * A lightweight host wall-time self-profiler for the simulator.
 *
 * Attributes host time to coarse simulator components (core, cache,
 * DRAM, FIVU) so a performance regression in one
 * subsystem is diagnosable without an external profiler. Enabled at
 * runtime via the shared selfprof=1 key; when disabled, each
 * instrumentation point costs a single predictable branch on a
 * global flag — no clock reads, no atomics.
 *
 * Attribution is exclusive: a Scope's time excludes nested Scopes
 * (e.g. Core excludes the Cache time of the memory accesses it
 * issues), so the per-domain percentages add up meaningfully. A
 * thread-local chain of active scopes makes this correct on the
 * SweepExecutor worker threads too; the accumulators are relaxed
 * atomics shared by all threads.
 */

#ifndef VIA_SIMCORE_SELFPROF_HH
#define VIA_SIMCORE_SELFPROF_HH

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <ostream>

namespace via::selfprof
{

/** Components host time is attributed to. */
enum class Domain : std::uint8_t
{
    Core,       //!< OoOCore scheduling (dispatch/issue/commit)
    Cache,      //!< MemSystem/Cache walks
    Dram,       //!< DRAM pipe
    Fivu,       //!< VIA unit dispatch
    /** Nothing enters it (there is no event queue), so its row reads
     *  zero; kept so the benchmark's per-layer domain list holds. */
    EventQueue,
    N
};

/** Printable name of @p d. */
const char *domainName(Domain d);

namespace detail
{

extern std::atomic<bool> gEnabled;

struct DomainAccum
{
    std::atomic<std::uint64_t> ns{0};
    std::atomic<std::uint64_t> calls{0};
};

extern std::array<DomainAccum,
                  std::size_t(Domain::N)> gAccum;

} // namespace detail

/** True when profiling is on (the inline fast-path check). */
inline bool
enabled()
{
    return detail::gEnabled.load(std::memory_order_relaxed);
}

/** Turn profiling on or off (on: scopes start accumulating). */
void enable(bool on);

/** Per-domain totals. */
struct DomainStats
{
    std::uint64_t ns = 0;
    std::uint64_t calls = 0;
};

/** Snapshot the accumulated totals for @p d. */
DomainStats stats(Domain d);

/** Print the attribution table (exclusive ns, share, calls). */
void report(std::ostream &os);

/** Print report() to stderr when the process exits (idempotent). */
void installAtExitReport();

/**
 * RAII instrumentation point. Near-zero cost when profiling is off:
 * the constructor reads one global flag and skips the clock.
 */
class Scope
{
  public:
    explicit Scope(Domain d)
    {
        if (!enabled())
            return;
        _active = true;
        _domain = d;
        _parent = tlCurrent;
        tlCurrent = this;
        _start = std::chrono::steady_clock::now();
    }

    ~Scope()
    {
        if (!_active)
            return;
        auto now = std::chrono::steady_clock::now();
        auto total = std::uint64_t(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                now - _start)
                .count());
        // Exclusive time: subtract what nested scopes consumed.
        std::uint64_t own =
            total > _childNs ? total - _childNs : 0;
        auto &acc = detail::gAccum[std::size_t(_domain)];
        acc.ns.fetch_add(own, std::memory_order_relaxed);
        acc.calls.fetch_add(1, std::memory_order_relaxed);
        tlCurrent = _parent;
        if (_parent != nullptr)
            _parent->_childNs += total;
    }

    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    static thread_local Scope *tlCurrent;

    bool _active = false;
    Domain _domain = Domain::Core;
    Scope *_parent = nullptr;
    std::uint64_t _childNs = 0;
    std::chrono::steady_clock::time_point _start;
};

} // namespace via::selfprof

#endif // VIA_SIMCORE_SELFPROF_HH
