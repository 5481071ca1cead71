/**
 * @file
 * Error and status reporting, modeled on gem5's base/logging.hh.
 *
 * panic():  an internal simulator bug; aborts.
 * fatal():  a user error (bad configuration); exits with status 1.
 * warn():   possibly-incorrect behavior the user should know about.
 * warn_once():    warn() that fires at most once per call site.
 * inform(): normal status messages.
 */

#ifndef D2M_COMMON_LOGGING_HH
#define D2M_COMMON_LOGGING_HH

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

namespace d2m
{

/** Internal printf-style formatter used by the logging macros. */
std::string vformat(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

[[noreturn]] void panicImpl(const char *file, int line,
                            const std::string &msg);
[[noreturn]] void fatalImpl(const char *file, int line,
                            const std::string &msg);
void warnImpl(const std::string &msg);
void informImpl(const std::string &msg);

/**
 * Prefix prepended to every inform()/warn() line emitted by the
 * calling thread ("" = none). The parallel sweep runner tags its pool
 * threads with "[job<N>] " so interleaved heartbeat / progress /
 * warning lines remain attributable to a grid cell.
 */
void setThreadLogPrefix(std::string prefix);

/** The calling thread's current log prefix. */
const std::string &threadLogPrefix();

/**
 * Hook run on the way out of panic()/fatal(), before the process
 * dies. Used by the observability layer to flush buffered trace
 * records so crash traces are debuggable (panic() aborts without
 * running destructors or atexit handlers). Hooks must be async-safe
 * enough to run mid-crash: no allocation-heavy work, no logging.
 */
using CrashHook = void (*)();

/** Register @p hook (bounded registry; at most 8, extras dropped). */
void registerCrashHook(CrashHook hook);

/** Run all registered hooks once; reentrant calls are no-ops. */
void runCrashHooks();

/**
 * Run the registered hooks WITHOUT latching the one-shot flag: the
 * per-run abort path (see ScopedAbortCapture) flushes a failing run's
 * trace tail but the process keeps executing the rest of the sweep,
 * so a later real crash must still be able to run the hooks. Hooks
 * must therefore tolerate repeated invocation (the trace-sink flush
 * does: an empty buffer flushes nothing).
 */
void runAbortFlushHooks();

/**
 * Install SIGINT/SIGTERM handlers that run the crash hooks (flushing
 * the trace sink) and then re-raise the signal with its default
 * disposition, so signal-driven shutdown keeps the process's
 * observable exit status while leaving debuggable traces behind.
 * Idempotent; never clobbers a non-default handler someone else
 * installed first (e.g. the sweep drain handler).
 */
void installSignalFlushHandlers();

/**
 * Thrown by fatal()/panic() instead of killing the process while a
 * ScopedAbortCapture is active on the calling thread. The campaign
 * runner converts it into a FAILED cell outcome; everything between
 * the raise site and the catch unwinds normally (each sweep job owns
 * its whole system, so unwinding cannot corrupt sibling runs).
 */
class RunAbortError : public std::exception
{
  public:
    RunAbortError(std::string msg, const char *file, int line,
                  bool is_panic);

    const char *what() const noexcept override { return what_.c_str(); }
    const std::string &message() const { return message_; }
    const char *file() const { return file_; }
    int line() const { return line_; }
    bool isPanic() const { return panic_; }

  private:
    std::string message_;
    std::string what_;  //!< "msg [file:line]" for generic catch sites.
    const char *file_;  //!< __FILE__ literal: static storage duration.
    int line_;
    bool panic_;
};

/**
 * While alive, fatal()/panic() on THIS thread throw RunAbortError
 * (after flushing the thread's trace tail) instead of terminating the
 * process. Scopes nest; the capture is per-thread, so a parallel
 * sweep job aborting never affects its siblings or the main thread.
 */
class ScopedAbortCapture
{
  public:
    ScopedAbortCapture();
    ~ScopedAbortCapture();

    ScopedAbortCapture(const ScopedAbortCapture &) = delete;
    ScopedAbortCapture &operator=(const ScopedAbortCapture &) = delete;

    /** True when a capture scope is active on the calling thread. */
    static bool active();
};

} // namespace d2m

/** Report an internal simulator bug and abort. */
#define panic(...) \
    ::d2m::panicImpl(__FILE__, __LINE__, ::d2m::vformat(__VA_ARGS__))

/** Report an unrecoverable user/configuration error and exit(1). */
#define fatal(...) \
    ::d2m::fatalImpl(__FILE__, __LINE__, ::d2m::vformat(__VA_ARGS__))

/** Warn about suspicious but non-fatal behavior. */
#define warn(...) ::d2m::warnImpl(::d2m::vformat(__VA_ARGS__))

/** warn() at most once per call site (thread-safe: parallel sweep
 * jobs share the per-site flag). */
#define warn_once(...)                                          \
    do {                                                        \
        static ::std::atomic<bool> _d2m_warned{false};          \
        if (!_d2m_warned.exchange(true,                         \
                                  ::std::memory_order_relaxed)) \
            warn(__VA_ARGS__);                                  \
    } while (0)

/** Print a normal informational message. */
#define inform(...) ::d2m::informImpl(::d2m::vformat(__VA_ARGS__))

/** panic() unless @p cond holds. */
#define panic_if(cond, ...)        \
    do {                           \
        if (cond)                  \
            panic(__VA_ARGS__);    \
    } while (0)

/** fatal() unless @p cond is false. */
#define fatal_if(cond, ...)        \
    do {                           \
        if (cond)                  \
            fatal(__VA_ARGS__);    \
    } while (0)

#endif // D2M_COMMON_LOGGING_HH
