/**
 * @file
 * SweepExecutor — deterministic parallel execution of independent
 * simulation points.
 *
 * Every benchmark figure is a sweep of (machine configuration x
 * input x kernel) points that share no simulator state: each point
 * builds its own Machine and draws its randomness from a per-point
 * Rng seeded with pointSeed(base, index). The executor fans the
 * points out over a thread pool and collects results in submission
 * order, so a run with threads=N prints output bit-identical to a
 * serial threads=1 run.
 *
 * Point functions must be self-contained: no writes to global
 * mutable state (the simulator's only global, the log level, is
 * atomic but should only be set before the sweep starts) and no
 * printing from inside a point — formatting belongs after
 * collection, in submission order.
 *
 * Library code fans host work out on the same pool, sized by
 * workersFor(): RMAT and uniform generation, Csr::fromRows and the
 * CSB conversion Csb::fromCsr, which work on ranges cut by
 * cutByWork(), and the format validators Csr::validate and
 * Csb::validate, which search ranges of rows or blocks side by side
 * for the first bad one (findFirst()). A forEach issued from inside
 * a pool worker runs its points inline on that worker, and
 * workersFor() is 1 there, so a threads=N sweep whose points build
 * inputs never runs more than N threads.
 */

#ifndef VIA_SIMCORE_PARALLEL_HH
#define VIA_SIMCORE_PARALLEL_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <ranges>
#include <type_traits>
#include <vector>

namespace via
{

/** A fixed-width pool that runs indexed jobs in submission order. */
class SweepExecutor
{
  public:
    /** @param threads worker count; 0 means hardwareThreads(). */
    explicit SweepExecutor(unsigned threads = 0);

    /** Resolved worker count (never 0). */
    unsigned threads() const { return _threads; }

    /**
     * Worker count used for threads=0: the CPUs the calling thread
     * may run on (its affinity mask, which `taskset` narrows), at
     * least 1.
     */
    static unsigned hardwareThreads();

    /**
     * Workers worth starting for @p items items of host work: one per
     * CPU from hardwareThreads(), at most one per 2^16 items and at
     * least 1, so small inputs stay on the calling thread. On a pool
     * worker it is 1: the pool already occupies the CPUs.
     */
    static unsigned workersFor(std::size_t items);

    /**
     * The RNG seed for point @p index of a sweep with base seed
     * @p base: a splitmix64 mix so neighbouring indices get
     * decorrelated streams. Depends only on (base, index) — never
     * on thread identity or scheduling — so a sweep is reproducible
     * at any thread count.
     */
    static std::uint64_t pointSeed(std::uint64_t base,
                                   std::size_t index);

    /**
     * Evaluate fn(0) .. fn(count-1) across the pool and return the
     * results indexed by point, regardless of completion order.
     * The result type must be default-constructible and movable.
     * The first exception a point throws is rethrown here after the
     * remaining workers drain.
     */
    template <typename Fn>
    auto
    run(std::size_t count, Fn &&fn) const
        -> std::vector<std::invoke_result_t<Fn &, std::size_t>>
    {
        using R = std::invoke_result_t<Fn &, std::size_t>;
        // vector<bool> packs bits; concurrent writes to distinct
        // points would race. Return a struct or int instead.
        static_assert(!std::is_same_v<R, bool>,
                      "SweepExecutor::run cannot collect bool");
        std::vector<R> out(count);
        forEach(count, [&](std::size_t i) { out[i] = fn(i); });
        return out;
    }

    /**
     * Run fn(i) for i in [0, count) with no result collection. On a
     * pool worker, the points run inline in index order.
     */
    void forEach(std::size_t count,
                 const std::function<void(std::size_t)> &fn) const;

  private:
    unsigned _threads;
};

/**
 * Cut items [0, n) into @p ranges runs of about equal work for a
 * fan-out. @p before(i) is the work before item i and never decreases
 * in i; before(n) is the total. Run p starts at the first item i with
 * before(i) >= before(n) * p / ranges, and a run may be empty.
 * Returns the ranges + 1 run starts, the last of them n.
 */
template <typename Before>
std::vector<std::size_t>
cutByWork(std::size_t n, unsigned ranges, const Before &before)
{
    const std::size_t total = before(n);
    const auto items = std::views::iota(std::size_t(0), n);
    std::vector<std::size_t> first(std::size_t(ranges) + 1, n);
    for (std::size_t p = 0; p < ranges; ++p) {
        const std::size_t target = total * p / ranges;
        const auto cut = std::ranges::partition_point(
            items, [&](std::size_t i) { return before(i) < target; });
        first[p] = std::size_t(cut - items.begin());
    }
    return first;
}

/**
 * The lowest item in [0, n) for which @p found(i) holds, or n if none
 * does. The items are searched in workersFor(before(n)) ranges cut by
 * @p before (see cutByWork) side by side, each stopping at its first
 * find, so the answer is the one a serial search gives.
 */
template <typename Before, typename Found>
std::size_t
findFirst(std::size_t n, const Before &before, const Found &found)
{
    const unsigned ranges = SweepExecutor::workersFor(before(n));
    const auto first = cutByWork(n, ranges, before);
    std::vector<std::size_t> hit(ranges, n);
    SweepExecutor(ranges).forEach(ranges, [&](std::size_t p) {
        for (std::size_t i = first[p]; i < first[p + 1]; ++i) {
            if (found(i)) {
                hit[p] = i;
                return;
            }
        }
    });
    return *std::ranges::min_element(hit);
}

} // namespace via

#endif // VIA_SIMCORE_PARALLEL_HH
