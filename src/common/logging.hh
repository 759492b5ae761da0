/**
 * @file
 * Status/error reporting helpers in the gem5 style.
 *
 * panic()  — an internal invariant was violated (a library bug); aborts.
 * fatal()  — the caller/user supplied an impossible configuration; exits.
 * warn()   — something is questionable but the run can continue.
 * inform() — plain status output.
 */

#ifndef PHOTOFOURIER_COMMON_LOGGING_HH
#define PHOTOFOURIER_COMMON_LOGGING_HH

#include <cstdio>
#include <sstream>
#include <string>

namespace photofourier {

/** Verbosity levels accepted by setLogLevel(). */
enum class LogLevel { Silent = 0, Warn = 1, Info = 2 };

/** Set the global log verbosity (default: Info). */
void setLogLevel(LogLevel level);

/**
 * Hook run on the panic path (failed pf_assert / pf_panic) after the
 * message prints but before the stack trace and abort. The obs layer
 * installs its flight-recorder dump here — common/ sits below obs/ in
 * the layering, so the dependency is inverted through this pointer.
 * The hook runs on the crashing thread and must not panic.
 */
using PanicHook = void (*)();

/** Install `hook` (nullptr to clear); returns the previous hook. */
PanicHook setPanicHook(PanicHook hook);

namespace detail {

[[noreturn]] void panicImpl(const char *file, int line,
                            const std::string &msg);
[[noreturn]] void fatalImpl(const char *file, int line,
                            const std::string &msg);
void warnImpl(const std::string &msg);
void informImpl(const std::string &msg);

/** Minimal printf-free message builder: concatenates stream args. */
template <typename... Args>
std::string
buildMessage(Args &&...args)
{
    std::ostringstream oss;
    (oss << ... << args);
    return oss.str();
}

} // namespace detail

/** Abort with a message; use for internal invariant violations. */
#define pf_panic(...)                                                      \
    ::photofourier::detail::panicImpl(                                     \
        __FILE__, __LINE__,                                               \
        ::photofourier::detail::buildMessage(__VA_ARGS__))

/** Exit with a message; use for invalid user configuration. */
#define pf_fatal(...)                                                      \
    ::photofourier::detail::fatalImpl(                                     \
        __FILE__, __LINE__,                                               \
        ::photofourier::detail::buildMessage(__VA_ARGS__))

/** Print a warning (suppressed at LogLevel::Silent). */
#define pf_warn(...)                                                       \
    ::photofourier::detail::warnImpl(                                      \
        ::photofourier::detail::buildMessage(__VA_ARGS__))

/** Print an informational message. */
#define pf_inform(...)                                                     \
    ::photofourier::detail::informImpl(                                    \
        ::photofourier::detail::buildMessage(__VA_ARGS__))

/**
 * Assert an invariant with a formatted message.
 *
 * Deliberately NOT gated on NDEBUG: unlike <cassert>, this macro stays
 * active in Release builds. The FFT entry points (FftPlan::execute,
 * the Fft2dPlan passes) rely on it for input validation — a silent
 * out-of-contract call there corrupts results instead of trapping, and
 * the checks are O(1) against O(n log n) work. The Release leg of the
 * CI matrix runs the death tests that pin this behaviour.
 */
#define pf_assert(cond, ...)                                               \
    do {                                                                   \
        if (!(cond)) {                                                     \
            pf_panic("assertion failed: " #cond " — ",                    \
                     ::photofourier::detail::buildMessage(__VA_ARGS__));   \
        }                                                                  \
    } while (0)

} // namespace photofourier

#endif // PHOTOFOURIER_COMMON_LOGGING_HH
