#include "simcore/log.hh"

#include <atomic>
#include <cstdio>
#include <new>
#include <stdexcept>

namespace via
{

namespace
{
// Atomic so concurrent sweep workers (simcore/parallel.hh) can read
// the level while another thread configures it; relaxed is enough
// because the level carries no other data.
std::atomic<LogLevel> g_level{LogLevel::Warn};

/**
 * A failed allocation ends the program as via_fatal does, with exit
 * 1 and one line, instead of an uncaught std::bad_alloc (abort, exit
 * 134). The handler is process-wide, so it also covers sweep worker
 * threads. It writes without allocating and leaves with _Exit: an
 * exit handler or destructor that allocated again would re-enter it.
 */
[[noreturn]] void
outOfMemory()
{
    std::fputs("fatal: out of memory\n", stderr);
    std::fflush(nullptr);
    std::_Exit(1);
}

// Installed before main in every program linked with libvia: every
// program calls via_fatal or via_panic, which live in this file.
[[maybe_unused]] const bool g_outOfMemoryHandler =
    (std::set_new_handler(outOfMemory), true);
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
