/**
 * @file
 * Experiment runner: executes (configuration x benchmark) sweeps and
 * collects Metrics rows for the report printers.
 *
 * Sweeps run in parallel on a work-stealing pool (harness/pool.hh):
 * every run builds its own MemorySystem, streams and golden memory,
 * so jobs share no mutable state (DESIGN.md §11). Results are
 * bit-identical to a serial sweep and emitted in the same
 * workload-major order regardless of which job finishes first.
 */

#ifndef D2M_HARNESS_RUNNER_HH
#define D2M_HARNESS_RUNNER_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "harness/metrics.hh"
#include "workload/suites.hh"

namespace d2m
{

/** Options for a sweep. */
struct SweepOptions
{
    SystemParams baseParams{};
    std::uint64_t instsPerCore = 0;  //!< 0 = workload default / env.
    /** Warmup instructions per core before counters reset; by default
     * equal to the measured instruction count (env D2M_WARMUP
     * overrides). */
    std::uint64_t warmupInstsPerCore = ~std::uint64_t(0);
    bool verbose = true;             //!< Progress lines to stderr.
    /**
     * Concurrent sweep jobs. 0 = auto: D2M_JOBS if set, else serial
     * when a single-file trace output is configured (D2M_TRACE_FILE,
     * whose file name stays byte-compatible that way), else the
     * hardware thread count. With jobs > 1 and tracing enabled, each
     * run writes <trace>.job<N> instead.
     */
    unsigned jobs = 0;
    RunOptions runOptions{};

    /** Retired: must stay 0 (runSweep() fatal()s otherwise). A sweep
     * runs each cell exactly once, with no stall timeout. */
    std::uint64_t runTimeoutMs = 0;
    /** Retired: must stay 0 (runSweep() fatal()s otherwise). A failed
     * cell is recorded as failed, never re-run with another seed. */
    std::uint64_t runRetries = 0;
    /**
     * Test hook, called once at the start of every cell (before the
     * system is built); the second argument is always 0. Runs inside
     * the per-run abort capture, so a fatal() here is recorded as that
     * cell failing — the campaign tests use it to inject crashes and
     * signals at precise points.
     */
    std::function<void(const NamedWorkload &wl, unsigned attempt)>
        preRunHook;
};

/** Aggregate outcome of one runSweep() call (DESIGN.md §12). */
struct SweepOutcome
{
    std::size_t total = 0;      //!< Grid cells requested.
    std::size_t executed = 0;   //!< Cells actually run this process.
    std::size_t fromStore = 0;  //!< Cells resumed from D2M_STORE_DIR.
    std::size_t ok = 0;
    std::size_t failed = 0;
    std::size_t abandoned = 0;  //!< Skipped by a shutdown drain.
    bool interrupted = false;   //!< SIGINT/SIGTERM drain happened.
};

/** Outcome of the most recent runSweep() in this process. */
const SweepOutcome &lastSweepOutcome();

/** Accumulated outcome of every runSweep() in this process. */
const SweepOutcome &processSweepOutcome();

/** Campaign exit-code semantics: clean / failed cells / interrupted
 * (partial takes precedence over failed — the missing cells make the
 * document incomplete, which matters more downstream). */
inline constexpr int kCampaignExitClean = 0;
inline constexpr int kCampaignExitFailed = 2;
inline constexpr int kCampaignExitPartial = 3;

/** Exit code for @p outcome per the semantics above. */
int campaignExitCode(const SweepOutcome &outcome);

/** Exit code for the whole process (processSweepOutcome()). */
int campaignExitCode();

/** Measured and warm-up instructions per core of one cell. */
struct RunLength
{
    std::uint64_t measured = 0;
    std::uint64_t warmup = 0;
};

/**
 * Run length of @p wl under @p opts. Measured: opts.instsPerCore, else
 * D2M_INSTS_PER_CORE, else the workload's own count. Warm-up:
 * opts.warmupInstsPerCore unless it is the ~0 sentinel, else
 * D2M_WARMUP, else the measured count.
 */
RunLength resolveRunLength(const NamedWorkload &wl,
                           const SweepOptions &opts);

/** opts.baseParams with the D2M_NODES core-count override applied.
 * Used for both system construction and store-key hashing, so runs
 * at different node counts can never collide in a result store. */
SystemParams resolveBaseParams(const SweepOptions &opts);

/**
 * Process-wide drain state, set from the sweep's SIGINT/SIGTERM
 * handler (a lock-free atomic, so async-signal-safe). Every sweep cell
 * reads it once per access through RunOptions::cancel.
 */

/** Note one received drain signal; @return the running count. */
int noteDrainSignal();

/** True once a drain has been requested. */
bool drainRequested();

/** Clear the drain state (tests that drain and then sweep again). */
void resetDrain();

/** Run one benchmark on one configuration. */
Metrics runOne(ConfigKind kind, const NamedWorkload &wl,
               const SweepOptions &opts = {});

/** Run every (config, workload) pair. Rows grouped by workload. */
std::vector<Metrics> runSweep(const std::vector<ConfigKind> &configs,
                              const std::vector<NamedWorkload> &workloads,
                              const SweepOptions &opts = {});

/**
 * @return true when @p value matches the filter @p spec.
 *
 * @p spec is a comma-separated list of patterns; the value matches if
 * any pattern does. A pattern is a substring match, or an exact match
 * when prefixed with '=' ("=fft" matches "fft" but not "fft2d").
 * An empty spec (or one of only empty tokens) matches everything.
 */
bool matchesFilter(const std::string &value, const std::string &spec);

/** Filter by env D2M_SUITE_FILTER / D2M_BENCH_FILTER (each a
 * comma-separated pattern list, see matchesFilter()) and apply the
 * campaign-wide D2M_SEED workload-seed override when set. */
std::vector<NamedWorkload>
filteredWorkloads(std::vector<NamedWorkload> workloads);

/** Filter configuration kinds by env D2M_CONFIG_FILTER (matched
 * against configKindName(), same pattern syntax). */
std::vector<ConfigKind>
filteredConfigs(std::vector<ConfigKind> configs);

} // namespace d2m

#endif // D2M_HARNESS_RUNNER_HH
