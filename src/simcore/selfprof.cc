#include "simcore/selfprof.hh"

#include <cstdio>
#include <cstdlib>
#include <iostream>

namespace via::selfprof
{

namespace detail
{

std::atomic<bool> gEnabled{false};
std::array<DomainAccum, std::size_t(Domain::N)> gAccum{};

} // namespace detail

thread_local Scope *Scope::tlCurrent = nullptr;

const char *
domainName(Domain d)
{
    switch (d) {
    case Domain::Core: return "core";
    case Domain::Cache: return "cache";
    case Domain::Dram: return "dram";
    case Domain::Fivu: return "fivu";
    case Domain::EventQueue: return "event-queue";
    case Domain::N: break;
    }
    return "?";
}

void
enable(bool on)
{
    detail::gEnabled.store(on, std::memory_order_relaxed);
}

DomainStats
stats(Domain d)
{
    const auto &acc = detail::gAccum[std::size_t(d)];
    return {acc.ns.load(std::memory_order_relaxed),
            acc.calls.load(std::memory_order_relaxed)};
}

void
report(std::ostream &os)
{
    std::uint64_t total_ns = 0;
    for (std::size_t i = 0; i < std::size_t(Domain::N); ++i)
        total_ns += stats(Domain(i)).ns;

    os << "selfprof: host wall-time by simulator component\n";
    char line[128];
    std::snprintf(line, sizeof(line), "  %-12s %12s %7s %14s\n",
                  "component", "ms", "share", "scopes");
    os << line;
    for (std::size_t i = 0; i < std::size_t(Domain::N); ++i) {
        DomainStats s = stats(Domain(i));
        double share = total_ns
                           ? 100.0 * double(s.ns) / double(total_ns)
                           : 0.0;
        std::snprintf(line, sizeof(line),
                      "  %-12s %12.3f %6.1f%% %14llu\n",
                      domainName(Domain(i)), double(s.ns) / 1e6,
                      share,
                      static_cast<unsigned long long>(s.calls));
        os << line;
    }
    std::snprintf(line, sizeof(line), "  %-12s %12.3f\n", "total",
                  double(total_ns) / 1e6);
    os << line;
}

void
installAtExitReport()
{
    static bool installed = false;
    if (installed)
        return;
    installed = true;
    std::atexit([] { report(std::cerr); });
}

} // namespace via::selfprof
