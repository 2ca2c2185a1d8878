/**
 * @file
 * gem5-style status and error reporting.
 *
 * panic()  - a simulator bug: something that should never happen
 *            regardless of user input. Throws std::logic_error
 *            (catchable by tests; uncaught, it aborts).
 * fatal()  - a user error (bad configuration, invalid arguments).
 *            Throws std::runtime_error (catchable by tests; uncaught,
 *            the process exits with status 1).
 * warn()   - functionality that might not behave as expected.
 * inform() - plain status output.
 */

#ifndef NIFDY_SIM_LOG_HH
#define NIFDY_SIM_LOG_HH

#include <cstdarg>
#include <string>

namespace nifdy
{

[[noreturn]] void panicImpl(const char *file, int line, const char *fmt,
                            ...) __attribute__((format(printf, 3, 4)));
[[noreturn]] void fatalImpl(const char *file, int line, const char *fmt,
                            ...) __attribute__((format(printf, 3, 4)));
void warnImpl(const char *fmt, ...) __attribute__((format(printf, 1, 2)));
void informImpl(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** Silence inform()/warn() output (used by tests and benches). */
void setQuiet(bool quiet);
bool quiet();

/** Write @p text verbatim to stdout (the single stdio funnel for
 * report output such as tables). */
void printRaw(const std::string &text);

} // namespace nifdy

#define panic(...) ::nifdy::panicImpl(__FILE__, __LINE__, __VA_ARGS__)
#define fatal(...) ::nifdy::fatalImpl(__FILE__, __LINE__, __VA_ARGS__)
#define warn(...) ::nifdy::warnImpl(__VA_ARGS__)
#define inform(...) ::nifdy::informImpl(__VA_ARGS__)

/** Condition-checked panic, kept in release builds (cheap checks only). */
#define panic_if(cond, ...)                                                 \
    do {                                                                    \
        if (cond) [[unlikely]]                                              \
            panic(__VA_ARGS__);                                             \
    } while (0)

#define fatal_if(cond, ...)                                                 \
    do {                                                                    \
        if (cond) [[unlikely]]                                              \
            fatal(__VA_ARGS__);                                             \
    } while (0)

#endif // NIFDY_SIM_LOG_HH
