/**
 * @file
 * Shared scaffolding for the table/figure reproduction binaries.
 *
 * Each bench_* binary regenerates one table or figure of the paper
 * (see DESIGN.md Section 5). Run length is controlled by
 * D2M_INSTS_PER_CORE (measured instructions per core; an equal warmup
 * precedes measurement) — the default keeps every binary in the
 * minutes range; raise it for tighter numbers.
 */

#ifndef D2M_BENCH_BENCH_COMMON_HH
#define D2M_BENCH_BENCH_COMMON_HH

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "harness/report.hh"
#include "harness/results_json.hh"
#include "harness/runner.hh"
#include "obs/json.hh"

namespace d2m::bench
{

/** Default measured instructions per core for bench sweeps. */
inline std::uint64_t
benchInsts()
{
    if (const std::uint64_t env = instsPerCoreOverride())
        return env;
    return 100'000;
}

/** Sweep options shared by the bench binaries. */
inline SweepOptions
benchOptions()
{
    SweepOptions opts;
    opts.instsPerCore = benchInsts();
    opts.warmupInstsPerCore = ~std::uint64_t(0);  // default: = measured
    opts.verbose = std::getenv("D2M_QUIET") == nullptr;
    return opts;
}

/** Print the standard bench banner (it names the warm-up when
 * D2M_WARMUP makes it differ from the measured length). */
inline void
banner(const char *what, const char *paper_ref)
{
    const RunLength len = resolveRunLength({}, benchOptions());
    const std::string warmup = len.warmup == len.measured
                                   ? "equal"
                                   : std::to_string(len.warmup);
    std::printf("==================================================="
                "=========================\n");
    std::printf("%s\n", what);
    std::printf("Reproduces: %s\n", paper_ref);
    std::printf("Measured instructions/core: %llu (+ %s warmup); "
                "override with D2M_INSTS_PER_CORE\n",
                static_cast<unsigned long long>(len.measured),
                warmup.c_str());
    std::printf("==================================================="
                "=========================\n\n");
}

/**
 * geomean(@p ratios) through @p fmt, which receives the geomean and
 * its percent change; "n/a" when there are no ratios. A filtered grid
 * (D2M_CONFIG_FILTER=Base) has no (Base-2L, config) pair, and
 * geomean({}) == 0 would print as "0.00x (-100%)".
 */
inline std::string
geomeanSummary(const std::vector<double> &ratios,
               const char *fmt = "%.2fx (%+.0f%%)")
{
    if (ratios.empty())
        return "n/a";
    const double g = geomean(ratios);
    return vformat(fmt, g, 100.0 * (g - 1));
}

/** Workloads after env filtering (D2M_SUITE_FILTER / D2M_BENCH_FILTER). */
inline std::vector<NamedWorkload>
benchWorkloads()
{
    return filteredWorkloads(allSuites());
}

/** A run that keeps the system alive for event-counter inspection. */
struct RawRun
{
    std::unique_ptr<MemorySystem> system;
    RunResult result;
};

/** Like runOne but returns the system (for D2M event counters). Run
 * length and node count resolve as in runOne() (D2M_WARMUP,
 * D2M_NODES), so its rows compare with runOne()'s. */
inline RawRun
runRaw(ConfigKind kind, const NamedWorkload &wl,
       SweepOptions opts = benchOptions())
{
    RawRun out;
    out.system = makeSystem(kind, resolveBaseParams(opts));
    const RunLength len = resolveRunLength(wl, opts);
    auto streams = makeStreams(wl, out.system->params().numNodes,
                               out.system->params().lineSize,
                               len.measured + len.warmup);
    RunOptions ropts = opts.runOptions;
    ropts.warmupInstsPerCore = len.warmup;
    out.result = runMulticore(*out.system, streams, ropts);
    return out;
}

/**
 * Write the sweep's Metrics rows as BENCH_<name>.json into the
 * directory named by D2M_BENCH_JSON_DIR (no-op when unset), so CI and
 * plotting scripts consume the same numbers the tables print.
 */
inline void
writeBenchJson(const char *name, const std::vector<Metrics> &rows)
{
    const char *dir = std::getenv("D2M_BENCH_JSON_DIR");
    if (!dir)
        return;
    const std::string path =
        std::string(dir) + "/BENCH_" + name + ".json";
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "warn: cannot write %s\n", path.c_str());
        return;
    }
    std::fputs("{\"bench\":", f);
    std::fputs(json::quote(name).c_str(), f);
    std::fputs(",\"rows\":[\n", f);
    for (std::size_t i = 0; i < rows.size(); ++i) {
        std::fputs(metricsToJson(rows[i]).c_str(), f);
        std::fputs(i + 1 < rows.size() ? ",\n" : "\n", f);
    }
    std::fputs("]}\n", f);
    std::fclose(f);
    std::fprintf(stderr, "wrote %s (%zu rows)\n", path.c_str(),
                 rows.size());
}

/**
 * Process exit code reflecting every sweep this binary ran: 0 clean,
 * 2 when cells failed, 3 when a drain interrupted the
 * campaign (see kCampaignExit* in harness/runner.hh). Bench mains
 * return this so CI distinguishes "figures are complete" from
 * "figures have holes".
 */
inline int
benchExitCode()
{
    return campaignExitCode();
}

/** One representative benchmark per suite (for expensive ablations). */
inline std::vector<NamedWorkload>
representativeWorkloads()
{
    std::vector<NamedWorkload> reps;
    for (const auto &wl : benchWorkloads()) {
        bool have = false;
        for (const auto &r : reps)
            have |= r.suite == wl.suite;
        if (!have)
            reps.push_back(wl);
    }
    return reps;
}

} // namespace d2m::bench

#endif // D2M_BENCH_BENCH_COMMON_HH
