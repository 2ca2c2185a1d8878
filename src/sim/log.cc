#include "sim/log.hh"

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <stdexcept>

namespace nifdy
{

namespace
{

bool quietFlag = false;

/** What fatal() throws: a std::runtime_error to its callers (tests
 * catch it as one), and distinguishable from a panic below. */
class FatalError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

[[noreturn]] void exitOnFatal();

/** Installed before main() in every binary, since each links this
 * file; the previous (default) handler stays in charge of the rest. */
const std::terminate_handler defaultTerminate =
    std::set_terminate(exitOnFatal);

/**
 * An uncaught fatal() is a user error whose diagnosis is already on
 * stderr: exit with status 1 instead of aborting. Anything else (a
 * panic, a foreign exception) keeps the default behaviour, the
 * "terminate called ..." line and abort().
 */
void
exitOnFatal()
{
    if (std::exception_ptr e = std::current_exception()) {
        try {
            std::rethrow_exception(e);
        } catch (const FatalError &) {
            std::fflush(nullptr);
            std::_Exit(1);
        } catch (...) {
        }
    }
    if (defaultTerminate)
        defaultTerminate();
    std::abort();
}

std::string
formatVa(const char *fmt, va_list ap)
{
    va_list ap2;
    va_copy(ap2, ap);
    int n = std::vsnprintf(nullptr, 0, fmt, ap);
    std::string out(n > 0 ? n : 0, '\0');
    std::vsnprintf(out.data(), out.size() + 1, fmt, ap2);
    va_end(ap2);
    return out;
}

} // namespace

void
setQuiet(bool q)
{
    quietFlag = q;
}

bool
quiet()
{
    return quietFlag;
}

void
panicImpl(const char *file, int line, const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    std::string msg = formatVa(fmt, ap);
    va_end(ap);
    std::fprintf(stderr, "panic: %s (%s:%d)\n", msg.c_str(), file, line);
    // Throw rather than abort so that unit tests can exercise the
    // failure paths; top-level drivers treat the exception as fatal.
    throw std::logic_error("panic: " + msg);
}

void
fatalImpl(const char *file, int line, const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    std::string msg = formatVa(fmt, ap);
    va_end(ap);
    std::fprintf(stderr, "fatal: %s (%s:%d)\n", msg.c_str(), file, line);
    throw FatalError("fatal: " + msg);
}

void
warnImpl(const char *fmt, ...)
{
    if (quietFlag)
        return;
    va_list ap;
    va_start(ap, fmt);
    std::string msg = formatVa(fmt, ap);
    va_end(ap);
    std::fprintf(stderr, "warn: %s\n", msg.c_str());
}

void
informImpl(const char *fmt, ...)
{
    if (quietFlag)
        return;
    va_list ap;
    va_start(ap, fmt);
    std::string msg = formatVa(fmt, ap);
    va_end(ap);
    std::fprintf(stdout, "info: %s\n", msg.c_str());
}

void
printRaw(const std::string &text)
{
    std::fwrite(text.data(), 1, text.size(), stdout);
}

} // namespace nifdy
