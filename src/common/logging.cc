#include "common/logging.hh"

#include <atomic>
#include <csignal>
#include <cstdarg>
#include <cstdio>
#include <mutex>

namespace d2m
{

std::string
vformat(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    va_list args_copy;
    va_copy(args_copy, args);
    const int len = std::vsnprintf(nullptr, 0, fmt, args);
    va_end(args);
    std::string result;
    if (len > 0) {
        result.resize(static_cast<size_t>(len));
        std::vsnprintf(result.data(), result.size() + 1, fmt, args_copy);
    }
    va_end(args_copy);
    return result;
}

namespace
{

// Fixed-size registry: no dynamic allocation, immune to static
// initialization order (zero-initialized before any registration).
// Registration is mutex-guarded (parallel sweep jobs may init trace
// sinks concurrently); the run-once latch is atomic so a crashing
// worker cannot race another into double-running the hooks.
CrashHook crashHooks[8];
unsigned numCrashHooks = 0;
std::mutex crashHooksMutex;
std::atomic<bool> crashHooksRan{false};

/** Nesting depth of ScopedAbortCapture on this thread. */
thread_local unsigned abortCaptureDepth = 0;

/** Per-thread inform()/warn() line prefix (sweep job attribution). */
thread_local std::string logPrefix;

/** Flush hooks, then re-raise with the default disposition so the
 * process still dies "by signal N" as far as the parent can tell. */
void
signalFlushHandler(int sig)
{
    runCrashHooks();
    std::signal(sig, SIG_DFL);
    std::raise(sig);
}

std::atomic<bool> flushHandlersInstalled{false};

} // namespace

void
registerCrashHook(CrashHook hook)
{
    if (!hook)
        return;
    std::lock_guard<std::mutex> lock(crashHooksMutex);
    for (unsigned i = 0; i < numCrashHooks; ++i) {
        if (crashHooks[i] == hook)
            return;  // idempotent
    }
    if (numCrashHooks < sizeof(crashHooks) / sizeof(crashHooks[0]))
        crashHooks[numCrashHooks++] = hook;
}

void
runCrashHooks()
{
    // A hook that itself panics must not recurse into the registry,
    // and only one crashing thread gets to run the hooks.
    if (crashHooksRan.exchange(true))
        return;
    for (unsigned i = 0; i < numCrashHooks; ++i)
        crashHooks[i]();
}

void
runAbortFlushHooks()
{
    for (unsigned i = 0; i < numCrashHooks; ++i)
        crashHooks[i]();
}

void
installSignalFlushHandlers()
{
    if (flushHandlersInstalled.exchange(true))
        return;
    struct sigaction sa = {};
    sa.sa_handler = &signalFlushHandler;
    sigemptyset(&sa.sa_mask);
    sa.sa_flags = 0;
    for (int sig : {SIGINT, SIGTERM}) {
        struct sigaction old = {};
        if (sigaction(sig, nullptr, &old) == 0 &&
            old.sa_handler == SIG_DFL) {
            sigaction(sig, &sa, nullptr);
        }
    }
}

RunAbortError::RunAbortError(std::string msg, const char *file, int line,
                             bool is_panic)
    : message_(std::move(msg)),
      what_(vformat("%s [%s:%d]", message_.c_str(), file, line)),
      file_(file), line_(line), panic_(is_panic)
{
}

ScopedAbortCapture::ScopedAbortCapture()
{
    ++abortCaptureDepth;
}

ScopedAbortCapture::~ScopedAbortCapture()
{
    --abortCaptureDepth;
}

bool
ScopedAbortCapture::active()
{
    return abortCaptureDepth > 0;
}

void
panicImpl(const char *file, int line, const std::string &msg)
{
    if (ScopedAbortCapture::active()) {
        // Flush this thread's buffered trace tail so the abort is
        // debuggable, then hand the diagnostic to the campaign layer.
        runAbortFlushHooks();
        throw RunAbortError(msg, file, line, /*is_panic=*/true);
    }
    std::fprintf(stderr, "panic: %s\n  @ %s:%d\n", msg.c_str(), file, line);
    runCrashHooks();
    std::abort();
}

void
fatalImpl(const char *file, int line, const std::string &msg)
{
    if (ScopedAbortCapture::active()) {
        runAbortFlushHooks();
        throw RunAbortError(msg, file, line, /*is_panic=*/false);
    }
    std::fprintf(stderr, "fatal: %s\n  @ %s:%d\n", msg.c_str(), file, line);
    runCrashHooks();
    std::exit(1);
}

void
setThreadLogPrefix(std::string prefix)
{
    logPrefix = std::move(prefix);
}

const std::string &
threadLogPrefix()
{
    return logPrefix;
}

void
warnImpl(const std::string &msg)
{
    std::fprintf(stderr, "%swarn: %s\n", logPrefix.c_str(), msg.c_str());
}

void
informImpl(const std::string &msg)
{
    std::fprintf(stdout, "%sinfo: %s\n", logPrefix.c_str(), msg.c_str());
}

} // namespace d2m
