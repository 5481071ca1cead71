#include "harness/runner.hh"

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <unistd.h>

#include "common/env.hh"
#include "common/logging.hh"
#include "harness/pool.hh"
#include "harness/results_json.hh"
#include "harness/store.hh"
#include "obs/selfprof.hh"
#include "obs/snapshot.hh"
#include "obs/trace.hh"

namespace d2m
{

namespace
{

/** Drain signals received (noteDrainSignal()); sweep cells poll it. */
std::atomic<int> drainSignals{0};

/** Per-run plumbing that the sweep drives but a single run doesn't. */
struct RunContext
{
    /** When non-null, messages buffer here instead of stderr so a
     * parallel job's output flushes as one contiguous block. */
    std::string *log = nullptr;
    /** When non-null, receives the verbatim stats row (for the
     * D2M_STATS_JSON document and the durable result store). */
    std::string *rowOut = nullptr;
    /** Drain counter the run loop polls (null = not cancellable). */
    const std::atomic<int> *cancel = nullptr;
};

double
unixNow()
{
    return std::chrono::duration<double>(
               std::chrono::system_clock::now().time_since_epoch())
        .count();
}

void
emit(const RunContext &ctx, const std::string &line)
{
    if (ctx.log)
        *ctx.log += line;
    else
        std::fputs(line.c_str(), stderr);
}

Metrics
runOneImpl(ConfigKind kind, const NamedWorkload &wl,
           const SweepOptions &opts, const RunContext &ctx)
{
    auto system = makeSystem(kind, resolveBaseParams(opts));
    const RunLength len = resolveRunLength(wl, opts);

    auto streams = makeStreams(wl, system->params().numNodes,
                               system->params().lineSize,
                               len.measured + len.warmup);
    RunOptions ropts = opts.runOptions;
    ropts.warmupInstsPerCore = len.warmup;
    ropts.cancel = ctx.cancel;
    // Per-run interval stats (D2M_INTERVAL_INSTS): the snapshotter
    // attaches to this system's stats tree and rides through
    // RunOptions, so concurrent runs never share one.
    auto snapshotter = obs::StatSnapshotter::fromEnv(*system);
    ropts.snapshotter = snapshotter.get();
    // Per-run self-profiler (D2M_SELFPROF): one instance per run,
    // built here because it samples the thread that runs the loop.
    auto selfprof = obs::SelfProfiler::fromEnv();
    ropts.selfprof = selfprof.get();
    const RunResult run = runMulticore(*system, streams, ropts);
    Metrics m = collectMetrics(kind, wl.suite, wl.name, *system, run);
    std::string sp;
    if (selfprof) {
        sp = "{\"wall\":" + selfprof->wallJson(run.measureWallSec) + "}";
        emit(ctx, selfprof->table(run.measureWallSec));
    }
    if (ctx.rowOut)
        *ctx.rowOut = buildRunRow(m, *system, snapshotter.get(), sp);
    if (run.valueErrors || run.invariantErrors) {
        emit(ctx, vformat(
                 "ERROR: %s/%s on %s: %llu value errors, %llu "
                 "invariant errors: %s\n",
                 wl.suite.c_str(), wl.name.c_str(), configKindName(kind),
                 static_cast<unsigned long long>(run.valueErrors),
                 static_cast<unsigned long long>(run.invariantErrors),
                 run.firstError.c_str()));
    }
    return m;
}

/**
 * Effective job count for a sweep of @p total runs. Auto (opts.jobs
 * == 0) stays serial when a single-file trace output is configured
 * and D2M_JOBS doesn't explicitly override — an existing
 * `D2M_TRACE_FILE=t.jsonl ./d2m_sweep` invocation keeps producing
 * exactly the file it always did.
 */
unsigned
resolveJobs(const SweepOptions &opts, std::size_t total)
{
    unsigned jobs = opts.jobs;
    if (jobs == 0) {
        if (envU64("D2M_JOBS", 0) > 0) {
            jobs = WorkStealingPool::defaultJobs();
        } else if (!obs::traceFilePath().empty()) {
            jobs = 1;
        } else {
            jobs = WorkStealingPool::defaultJobs();
        }
    }
    if (total < jobs)
        jobs = total ? static_cast<unsigned>(total) : 1;
    return jobs;
}

/**
 * SIGINT/SIGTERM during a sweep: first signal requests a graceful
 * drain (in-flight runs stop at their next access and are recorded as
 * abandoned, everything durable is already on disk); a second signal
 * force-quits after flushing observability sinks.
 */
void
drainSignalHandler(int sig)
{
    if (noteDrainSignal() == 1) {
        static const char msg[] =
            "\nd2m: drain requested -- stopping runs, keeping partial "
            "results (signal again to force quit)\n";
        [[maybe_unused]] auto r = ::write(2, msg, sizeof(msg) - 1);
    } else {
        runCrashHooks();
        ::_exit(128 + sig);
    }
}

/** Install the drain handler for the duration of a sweep. */
class DrainScope
{
  public:
    DrainScope()
    {
        struct sigaction sa;
        std::memset(&sa, 0, sizeof(sa));
        sa.sa_handler = &drainSignalHandler;
        sigemptyset(&sa.sa_mask);
        ::sigaction(SIGINT, &sa, &prevInt_);
        ::sigaction(SIGTERM, &sa, &prevTerm_);
    }

    ~DrainScope()
    {
        ::sigaction(SIGINT, &prevInt_, nullptr);
        ::sigaction(SIGTERM, &prevTerm_, nullptr);
    }

  private:
    struct sigaction prevInt_{}, prevTerm_{};
};

std::mutex &
outcomeMutex()
{
    static std::mutex m;
    return m;
}

SweepOutcome &
lastOutcomeRef()
{
    static SweepOutcome o;
    return o;
}

SweepOutcome &
processOutcomeRef()
{
    static SweepOutcome o;
    return o;
}

} // namespace

RunLength
resolveRunLength(const NamedWorkload &wl, const SweepOptions &opts)
{
    RunLength len;
    len.measured = opts.instsPerCore;
    if (len.measured == 0)
        len.measured = instsPerCoreOverride();
    if (len.measured == 0)
        len.measured = wl.params.instructionsPerCore;
    len.warmup = opts.warmupInstsPerCore;
    if (len.warmup == ~std::uint64_t(0))
        len.warmup = envU64("D2M_WARMUP", len.measured);
    return len;
}

SystemParams
resolveBaseParams(const SweepOptions &opts)
{
    SystemParams p = opts.baseParams;
    if (const std::uint64_t n = envU64("D2M_NODES", 0))
        p.numNodes = static_cast<unsigned>(n);
    return p;
}

int
noteDrainSignal()
{
    return drainSignals.fetch_add(1, std::memory_order_relaxed) + 1;
}

bool
drainRequested()
{
    return drainSignals.load(std::memory_order_relaxed) > 0;
}

void
resetDrain()
{
    drainSignals.store(0, std::memory_order_relaxed);
}

const SweepOutcome &
lastSweepOutcome()
{
    return lastOutcomeRef();
}

const SweepOutcome &
processSweepOutcome()
{
    return processOutcomeRef();
}

int
campaignExitCode(const SweepOutcome &outcome)
{
    if (outcome.interrupted || outcome.abandoned)
        return kCampaignExitPartial;
    if (outcome.failed)
        return kCampaignExitFailed;
    return kCampaignExitClean;
}

int
campaignExitCode()
{
    std::lock_guard<std::mutex> lock(outcomeMutex());
    return campaignExitCode(processOutcomeRef());
}

Metrics
runOne(ConfigKind kind, const NamedWorkload &wl, const SweepOptions &opts)
{
    RunContext ctx;
    std::string row;
    if (!resultsJsonPath().empty())
        ctx.rowOut = &row;
    Metrics m = runOneImpl(kind, wl, opts, ctx);
    exportRowsJson({std::move(row)});
    return m;
}

std::vector<Metrics>
runSweep(const std::vector<ConfigKind> &configs,
         const std::vector<NamedWorkload> &workloads,
         const SweepOptions &opts)
{
    fatal_if(opts.runTimeoutMs || opts.runRetries,
             "SweepOptions::runTimeoutMs=%llu, runRetries=%llu: a sweep "
             "runs each cell once, with no stall timeout; both must be 0",
             static_cast<unsigned long long>(opts.runTimeoutMs),
             static_cast<unsigned long long>(opts.runRetries));
    // A config that cannot be built would fail every one of its cells
    // at run time; reject the whole grid once, before any cell runs.
    const SystemParams base = resolveBaseParams(opts);
    for (ConfigKind kind : configs) {
        const std::string why = configError(kind, base);
        fatal_if(!why.empty(), "config %s cannot be built: %s",
                 configKindName(kind), why.c_str());
    }

    struct JobSpec
    {
        ConfigKind kind;
        const NamedWorkload *wl;
    };
    std::vector<JobSpec> specs;
    specs.reserve(configs.size() * workloads.size());
    // Workload-major order, matching the historical serial loop: the
    // rows (and the D2M_STATS_JSON document) come out in this order
    // however the jobs are scheduled.
    for (const auto &wl : workloads)
        for (ConfigKind kind : configs)
            specs.push_back({kind, &wl});

    std::vector<Metrics> rows(specs.size());
    if (specs.empty())
        return rows;

    const bool resume = envU64("D2M_RESUME", 1) != 0;
    auto store = ResultStore::fromEnv();
    // Each cell's document row (resumed, ok or failed; an abandoned
    // cell leaves none), written once after the pool drains.
    std::vector<std::string> docRows(specs.size());
    const bool keepRows = store || !resultsJsonPath().empty();

    SweepOutcome outcome;
    outcome.total = specs.size();

    // Content-hash keys (only needed when a store is attached).
    std::vector<RunKey> keys(store ? specs.size() : 0);
    std::vector<std::size_t> pending;
    pending.reserve(specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
        if (store) {
            const RunLength len = resolveRunLength(*specs[i].wl, opts);
            keys[i] = makeRunKey(specs[i].kind, *specs[i].wl, len.warmup,
                                 len.measured, base);
            StoredRun prev;
            if (resume && store->lookup(keys[i], &prev)) {
                rows[i] = prev.metrics;
                docRows[i] = prev.row;
                ++outcome.fromStore;
                if (prev.status == RunStatus::Ok)
                    ++outcome.ok;
                else
                    ++outcome.failed;
                if (opts.verbose) {
                    std::fprintf(stderr,
                                 "  resumed %-10s %-14s on %s from store "
                                 "(%s)\n",
                                 specs[i].wl->suite.c_str(),
                                 specs[i].wl->name.c_str(),
                                 configKindName(specs[i].kind),
                                 runStatusName(prev.status));
                }
                continue;
            }
        }
        pending.push_back(i);
    }

    // Atomic tallies: parallel cells bump these from pool threads.
    std::atomic<std::size_t> nExecuted{0}, nOk{0}, nFailed{0},
        nAbandoned{0};

    DrainScope drainScope;

    auto executeCell = [&](std::size_t i, bool parallel) {
        const JobSpec &spec = specs[i];
        RunContext ctx;
        ctx.cancel = &drainSignals;
        std::string log;
        std::unique_ptr<obs::TraceSink> sink;
        obs::TraceSink *prevSink = nullptr;
        if (parallel) {
            ctx.log = &log;
            // Heartbeat / progress / warning lines from this pool
            // thread carry the cell's job tag so interleaved output
            // stays attributable.
            setThreadLogPrefix("[job" + std::to_string(i) + "] ");
            // Per-job trace files: job N of this sweep writes
            // <path>.jobN so concurrent runs never share a sink.
            if (!obs::traceFilePath().empty()) {
                sink = std::make_unique<obs::TraceSink>(
                    obs::traceFilePath() + ".job" + std::to_string(i));
                prevSink = obs::setGlobalSink(sink.get());
            }
        }
        std::string row;
        if (keepRows)
            ctx.rowOut = &row;

        Metrics m;
        std::string error;
        // A cell queued behind a drain never starts; one in flight
        // stops at its next access (RunOptions::cancel).
        bool abandoned = drainRequested();
        bool done = false;
        if (!abandoned) {
            nExecuted.fetch_add(1, std::memory_order_relaxed);
            if (opts.verbose) {
                emit(ctx, vformat("  running %-10s %-14s on %s...\n",
                                  spec.wl->suite.c_str(),
                                  spec.wl->name.c_str(),
                                  configKindName(spec.kind)));
            }
            try {
                // Everything inside this scope that would normally
                // abort the process (fatal/panic/invariant failures)
                // is converted into RunAbortError: the cell is recorded
                // as failed, or as abandoned when a drain stopped it.
                ScopedAbortCapture capture;
                if (opts.preRunHook)
                    opts.preRunHook(*spec.wl, 0);
                m = runOneImpl(spec.kind, *spec.wl, opts, ctx);
                done = true;
            } catch (const std::exception &e) {
                abandoned = drainRequested();
                error = e.what();
            }
        }

        if (done) {
            if (opts.verbose) {
                emit(ctx, vformat("    %.0f KIPS (warmup %.1fs, measure "
                                  "%.1fs)\n",
                                  m.simKips, m.warmupWallSec,
                                  m.measureWallSec));
            }
            nOk.fetch_add(1, std::memory_order_relaxed);
            if (store) {
                store->put({keys[i], RunStatus::Ok, "", unixNow(),
                            m.simKips, m, row});
            }
        } else {
            m = Metrics{};
            m.config = configKindName(spec.kind);
            m.suite = spec.wl->suite;
            m.benchmark = spec.wl->name;
            if (abandoned) {
                // Not stored and not exported: a resumed campaign must
                // re-execute this cell.
                m.status = "abandoned";
                nAbandoned.fetch_add(1, std::memory_order_relaxed);
            } else {
                m.status = "failed";
                m.errorMessage = error;
                row = buildFailureRow(m);
                if (store) {
                    store->put({keys[i], RunStatus::Failed, error,
                                unixNow(), 0.0, m, row});
                }
                nFailed.fetch_add(1, std::memory_order_relaxed);
                emit(ctx, vformat("ERROR: %s/%s on %s FAILED: %s\n",
                                  spec.wl->suite.c_str(),
                                  spec.wl->name.c_str(),
                                  configKindName(spec.kind),
                                  error.c_str()));
            }
        }
        rows[i] = std::move(m);
        docRows[i] = std::move(row);

        if (sink) {
            sink.reset();  // flush + close before detaching
            obs::setGlobalSink(prevSink);
        }
        // One write call per job: POSIX stderr is unbuffered, so
        // the block lands contiguously even across processes.
        if (!log.empty())
            std::fputs(log.c_str(), stderr);
        if (parallel)
            setThreadLogPrefix("");  // pool threads are reused
    };

    const unsigned jobs = resolveJobs(opts, pending.size());
    if (jobs <= 1 || pending.empty()) {
        for (std::size_t i : pending)
            executeCell(i, /*parallel=*/false);
    } else {
        WorkStealingPool pool(jobs);
        for (std::size_t i : pending)
            pool.submit([&, i] { executeCell(i, /*parallel=*/true); });
        pool.wait();
    }
    exportRowsJson(docRows);

    outcome.executed = nExecuted.load();
    outcome.ok += nOk.load();
    outcome.failed += nFailed.load();
    outcome.abandoned = nAbandoned.load();
    outcome.interrupted = drainRequested();

    {
        std::lock_guard<std::mutex> lock(outcomeMutex());
        lastOutcomeRef() = outcome;
        SweepOutcome &acc = processOutcomeRef();
        acc.total += outcome.total;
        acc.executed += outcome.executed;
        acc.fromStore += outcome.fromStore;
        acc.ok += outcome.ok;
        acc.failed += outcome.failed;
        acc.abandoned += outcome.abandoned;
        acc.interrupted = acc.interrupted || outcome.interrupted;
    }
    return rows;
}

bool
matchesFilter(const std::string &value, const std::string &spec)
{
    if (spec.empty())
        return true;
    bool sawPattern = false;
    std::size_t pos = 0;
    while (pos <= spec.size()) {
        std::size_t comma = spec.find(',', pos);
        if (comma == std::string::npos)
            comma = spec.size();
        const std::string tok = spec.substr(pos, comma - pos);
        pos = comma + 1;
        if (tok.empty())
            continue;  // tolerate "a,,b" and trailing commas
        sawPattern = true;
        if (tok[0] == '=') {
            if (value == tok.substr(1))
                return true;
        } else if (value.find(tok) != std::string::npos) {
            return true;
        }
    }
    // A spec of only separators ("," or ",,") constrains nothing.
    return !sawPattern;
}

std::vector<NamedWorkload>
filteredWorkloads(std::vector<NamedWorkload> workloads)
{
    const char *suite = std::getenv("D2M_SUITE_FILTER");
    const char *bench = std::getenv("D2M_BENCH_FILTER");
    if (suite || bench) {
        std::vector<NamedWorkload> out;
        for (auto &wl : workloads) {
            if (suite && !matchesFilter(wl.suite, suite))
                continue;
            if (bench && !matchesFilter(wl.name, bench))
                continue;
            out.push_back(wl);
        }
        workloads = std::move(out);
    }
    // Campaign-wide seed override: one knob repoints every workload's
    // stream generator.
    if (std::getenv("D2M_SEED")) {
        const std::uint64_t seed = envU64("D2M_SEED", 0);
        for (auto &wl : workloads)
            wl.params.seed = seed;
    }
    return workloads;
}

std::vector<ConfigKind>
filteredConfigs(std::vector<ConfigKind> configs)
{
    const char *spec = std::getenv("D2M_CONFIG_FILTER");
    if (!spec)
        return configs;
    std::vector<ConfigKind> out;
    for (ConfigKind kind : configs) {
        if (matchesFilter(configKindName(kind), spec))
            out.push_back(kind);
    }
    return out;
}

} // namespace d2m
