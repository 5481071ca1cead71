/**
 * @file
 * Campaign driver: the full (configs x workloads) grid as one
 * crash-safe, resumable run (DESIGN.md §12).
 *
 * Usage: d2m_campaign [--manifest=FILE]
 *
 * A manifest (harness/manifest.hh) declares the whole campaign in one
 * file; applying it seeds the environment, and variables already set
 * in the environment win over manifest values — so a manifest-driven
 * campaign is exactly the equivalent env-var-driven one.
 *
 * Environment:
 *   D2M_STORE_DIR       durable result store; enables resume
 *   D2M_RESUME=0        re-execute everything despite the store
 *   D2M_STATS_JSON      combined stats document (byte-identical
 *                       whether or not the campaign was interrupted)
 *   D2M_CONFIG_FILTER / D2M_SUITE_FILTER / D2M_BENCH_FILTER /
 *   D2M_INSTS_PER_CORE / D2M_SEED / D2M_JOBS / D2M_QUIET as usual.
 *
 * Each cell runs once. Exit code: 0 all cells ok, 2 some cells
 * failed, 3 interrupted (drained) before the grid completed.
 *
 * Test knobs (used by tests/ and CI to exercise crash paths):
 *   D2M_CAMPAIGN_KILL_AFTER=N    SIGKILL self when the N-th cell starts
 *   D2M_CAMPAIGN_SIGINT_AFTER=N  raise SIGINT when the N-th cell starts
 *   D2M_CAMPAIGN_FAIL_BENCH=x    fatal() in every run of benchmark x
 */

#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include <sys/types.h>
#include <unistd.h>

#include "common/env.hh"
#include "common/logging.hh"
#include "harness/manifest.hh"
#include "harness/runner.hh"
#include "harness/store.hh"
#include "workload/suites.hh"

namespace
{

void
usage(std::FILE *out)
{
    std::fprintf(out,
                 "usage: d2m_campaign [--manifest=FILE]\n\n"
                 "Runs the full (configs x workloads) grid as one "
                 "crash-safe, resumable campaign.\nA manifest seeds "
                 "the D2M_* environment (already-set variables win).\n\n"
                 "Manifest keys:\n");
    const char *section = "";
    for (const auto &k : d2m::manifestKeys()) {
        if (std::strcmp(section, k.section) != 0) {
            section = k.section;
            std::fprintf(out, "  [%s]\n", section);
        }
        std::fprintf(out, "    %-16s -> %s%s\n", k.key, k.env,
                     k.numeric ? " (integer)" : "");
    }
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace d2m;

    std::string manifestPath;
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (std::strcmp(arg, "--help") == 0 ||
            std::strcmp(arg, "-h") == 0) {
            usage(stdout);
            return 0;
        } else if (std::strncmp(arg, "--manifest=", 11) == 0) {
            manifestPath = arg + 11;
        } else if (std::strcmp(arg, "--manifest") == 0 &&
                   i + 1 < argc) {
            manifestPath = argv[++i];
        } else {
            std::fprintf(stderr, "d2m_campaign: unknown argument '%s'\n",
                         arg);
            usage(stderr);
            return 1;
        }
    }
    if (!manifestPath.empty()) {
        Manifest m = parseManifestFile(manifestPath);
        applyManifest(m, std::getenv("D2M_QUIET") == nullptr);
    }

    SweepOptions opts;
    opts.verbose = std::getenv("D2M_QUIET") == nullptr;

    const std::uint64_t killAfter = envU64("D2M_CAMPAIGN_KILL_AFTER", 0);
    const std::uint64_t intAfter = envU64("D2M_CAMPAIGN_SIGINT_AFTER", 0);
    const char *failBench = std::getenv("D2M_CAMPAIGN_FAIL_BENCH");
    if (killAfter || intAfter || failBench) {
        static std::atomic<std::uint64_t> started{0};
        opts.preRunHook = [=](const NamedWorkload &wl, unsigned) {
            const std::uint64_t n = started.fetch_add(1) + 1;
            if (killAfter && n == killAfter)
                ::kill(::getpid(), SIGKILL);
            if (intAfter && n == intAfter)
                std::raise(SIGINT);
            if (failBench && wl.name == failBench)
                fatal("injected campaign failure for benchmark '%s'",
                      failBench);
        };
    }

    const auto configs = filteredConfigs(allConfigs());
    const auto workloads = filteredWorkloads(allSuites());
    std::fprintf(stderr, "d2m_campaign: %zu configs x %zu workloads\n",
                 configs.size(), workloads.size());

    runSweep(configs, workloads, opts);

    const SweepOutcome &o = lastSweepOutcome();
    std::fprintf(stderr,
                 "d2m_campaign: %zu cells (%zu executed, %zu resumed): "
                 "%zu ok, %zu failed, %zu abandoned%s\n",
                 o.total, o.executed, o.fromStore, o.ok, o.failed,
                 o.abandoned,
                 o.interrupted ? " [interrupted]" : "");
    return campaignExitCode(o);
}
