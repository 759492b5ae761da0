#include "common/logging.hh"

#include <atomic>
#include <cstdlib>
#include <iostream>

// Sanitizer hook for panic/assert failures: under ASan/UBSan/TSan
// builds (the CI sanitizer matrix), a failed pf_assert prints the
// symbolized call chain through the sanitizer runtime before
// aborting, so CI logs show *who* violated the invariant — the
// message alone names only the assertion site.
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define PF_HAVE_SANITIZER_STACKTRACE 1
#endif
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__) || \
    defined(__SANITIZE_UNDEFINED__)
#define PF_HAVE_SANITIZER_STACKTRACE 1
#endif
#if defined(PF_HAVE_SANITIZER_STACKTRACE) && \
    __has_include(<sanitizer/common_interface_defs.h>)
#include <sanitizer/common_interface_defs.h>
#else
#undef PF_HAVE_SANITIZER_STACKTRACE
#endif

namespace photofourier {

namespace {

LogLevel global_level = LogLevel::Info;

std::atomic<PanicHook> global_panic_hook{nullptr};

} // namespace

void
setLogLevel(LogLevel level)
{
    global_level = level;
}

PanicHook
setPanicHook(PanicHook hook)
{
    return global_panic_hook.exchange(hook);
}

namespace detail {

void
panicImpl(const char *file, int line, const std::string &msg)
{
    std::cerr << "panic: " << msg << " @ " << file << ":" << line
              << std::endl;
    // Flight-recorder hook first: once the sanitizer trace or abort
    // runs there is no further chance to persist the last log events.
    if (PanicHook hook = global_panic_hook.load())
        hook();
#ifdef PF_HAVE_SANITIZER_STACKTRACE
    __sanitizer_print_stack_trace();
#endif
    std::abort();
}

void
fatalImpl(const char *file, int line, const std::string &msg)
{
    std::cerr << "fatal: " << msg << " @ " << file << ":" << line
              << std::endl;
    std::exit(1);
}

void
warnImpl(const std::string &msg)
{
    if (global_level >= LogLevel::Warn)
        std::cerr << "warn: " << msg << std::endl;
}

void
informImpl(const std::string &msg)
{
    if (global_level >= LogLevel::Info)
        std::cout << "info: " << msg << std::endl;
}

} // namespace detail

} // namespace photofourier
