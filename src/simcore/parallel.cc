#include "simcore/parallel.hh"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>

#ifdef __linux__
#include <sched.h>
#endif

#include "simcore/log.hh"

namespace via
{

namespace
{

/** Set on every pool worker: a nested forEach runs inline there,
 *  and workersFor() is 1. */
thread_local bool poolWorker = false;

} // namespace

SweepExecutor::SweepExecutor(unsigned threads)
    : _threads(threads ? threads : hardwareThreads())
{
}

unsigned
SweepExecutor::hardwareThreads()
{
    // hardware_concurrency() counts the online CPUs, also those the
    // affinity mask excludes.
#ifdef __linux__
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0 &&
        CPU_COUNT(&set) > 0)
        return unsigned(CPU_COUNT(&set));
#endif
    unsigned n = std::thread::hardware_concurrency();
    return n ? n : 1;
}

unsigned
SweepExecutor::workersFor(std::size_t items)
{
    const std::size_t per_grain = items >> 16;
    if (per_grain <= 1 || poolWorker)
        return 1;
    return unsigned(std::min<std::size_t>(hardwareThreads(), per_grain));
}

std::uint64_t
SweepExecutor::pointSeed(std::uint64_t base, std::size_t index)
{
    // One splitmix64 round over base + index * golden ratio; the
    // same finalizer Rng uses to expand its seed, so point streams
    // are as decorrelated as independently-seeded Rngs.
    std::uint64_t z = base + 0x9e3779b97f4a7c15ull *
                                 (std::uint64_t(index) + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

void
SweepExecutor::forEach(std::size_t count,
                       const std::function<void(std::size_t)> &fn)
    const
{
    via_assert(fn, "SweepExecutor needs a point function");
    std::size_t workers = std::min<std::size_t>(_threads, count);
    if (workers <= 1 || poolWorker) {
        for (std::size_t i = 0; i < count; ++i)
            fn(i);
        return;
    }

    std::atomic<std::size_t> next{0};
    std::exception_ptr error;
    std::mutex error_mutex;

    auto worker = [&] {
        poolWorker = true;
        for (;;) {
            std::size_t i =
                next.fetch_add(1, std::memory_order_relaxed);
            if (i >= count)
                return;
            try {
                fn(i);
            } catch (...) {
                std::lock_guard<std::mutex> lock(error_mutex);
                if (!error)
                    error = std::current_exception();
                // Stop handing out further points; in-flight ones
                // finish so joins stay clean.
                next.store(count, std::memory_order_relaxed);
            }
        }
    };

    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (std::size_t t = 0; t < workers; ++t)
        pool.emplace_back(worker);
    for (auto &th : pool)
        th.join();
    if (error)
        std::rethrow_exception(error);
}

} // namespace via
