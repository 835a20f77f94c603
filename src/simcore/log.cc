#include "simcore/log.hh"

#include <atomic>
#include <cstdio>
#include <stdexcept>

namespace via
{

namespace
{
// Atomic so concurrent sweep workers (simcore/parallel.hh) can read
// the level while another thread configures it; relaxed is enough
// because the level carries no other data.
std::atomic<LogLevel> g_level{LogLevel::Warn};
} // namespace

void
setLogLevel(LogLevel level)
{
    g_level.store(level, std::memory_order_relaxed);
}

LogLevel
logLevel()
{
    return g_level.load(std::memory_order_relaxed);
}

namespace detail
{

void
panicImpl(const char *file, int line, const std::string &msg)
{
    std::fprintf(stderr, "panic: %s\n  at %s:%d\n", msg.c_str(), file,
                 line);
    std::fflush(stderr);
    std::abort();
}

void
fatalImpl(const char *file, int line, const std::string &msg)
{
    std::fprintf(stderr, "fatal: %s\n  at %s:%d\n", msg.c_str(), file,
                 line);
    std::fflush(stderr);
    std::exit(1);
}

void
debugImpl(const std::string &msg)
{
    if (logLevel() >= LogLevel::Debug)
        std::fprintf(stderr, "debug: %s\n", msg.c_str());
}

} // namespace detail

} // namespace via
