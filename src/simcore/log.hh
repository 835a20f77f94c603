/**
 * @file
 * Logging and error reporting in the gem5 tradition.
 *
 * panic()  - an internal simulator invariant was violated (a bug);
 *            aborts so a debugger or core dump can capture state.
 * fatal()  - the simulation cannot continue due to a user error
 *            (bad configuration, invalid input); exits cleanly.
 * warn()   - something may be modelled imperfectly but execution can
 *            continue.
 * inform() - status messages with no negative connotation.
 */

#ifndef VIA_SIMCORE_LOG_HH
#define VIA_SIMCORE_LOG_HH

#include <cstdlib>
#include <sstream>
#include <string>

namespace via
{

/** Verbosity levels accepted by setLogLevel(). */
enum class LogLevel { Quiet = 0, Warn = 1, Inform = 2, Debug = 3 };

/** Set the global verbosity; messages above the level are dropped. */
void setLogLevel(LogLevel level);

/** Current global verbosity. */
LogLevel logLevel();

namespace detail
{

[[noreturn]] void panicImpl(const char *file, int line,
                            const std::string &msg);
[[noreturn]] void fatalImpl(const char *file, int line,
                            const std::string &msg);
void debugImpl(const std::string &msg);

/** Fold a parameter pack into a string via ostringstream. */
template <typename... Args>
std::string
fmtCat(Args &&...args)
{
    std::ostringstream os;
    (os << ... << args);
    return os.str();
}

} // namespace detail

} // namespace via

/** Abort: an invariant of the simulator itself was violated. */
#define via_panic(...) \
    ::via::detail::panicImpl(__FILE__, __LINE__, \
                             ::via::detail::fmtCat(__VA_ARGS__))

/** Exit(1): the user asked for something the simulator cannot do. */
#define via_fatal(...) \
    ::via::detail::fatalImpl(__FILE__, __LINE__, \
                             ::via::detail::fmtCat(__VA_ARGS__))

/** Developer chatter, hidden unless LogLevel::Debug. */
#define via_debug(...) \
    ::via::detail::debugImpl(::via::detail::fmtCat(__VA_ARGS__))

/** Condition-checked panic, in the spirit of gem5's panic_if. */
#define via_assert(cond, ...) \
    do { \
        if (!(cond)) { \
            via_panic("assertion '" #cond "' failed: ", \
                      ::via::detail::fmtCat(__VA_ARGS__)); \
        } \
    } while (0)

#endif // VIA_SIMCORE_LOG_HH
