/**
 * @file
 * Campaign driver: the full (configs x workloads) grid as one
 * crash-safe, resumable run (DESIGN.md §12).
 *
 * Usage: d2m_campaign
 *
 * The environment is the whole configuration; `d2m_campaign --help`
 * lists every D2M_* variable it reads. A campaign kept in a file is a
 * shell env file: `set -a; . fig5.env; set +a; d2m_campaign`.
 *
 * Each cell runs once. Exit code: 0 all cells ok, 2 some cells
 * failed, 3 interrupted (drained) before the grid completed.
 * Three test knobs (D2M_CAMPAIGN_*, also in --help) let tests/ and CI
 * kill, interrupt or fail the campaign at a chosen cell.
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
#include "harness/runner.hh"
#include "harness/store.hh"
#include "workload/suites.hh"

namespace
{

void
usage(std::FILE *out)
{
    std::fputs(
        "usage: d2m_campaign\n\n"
        "Runs the full (configs x workloads) grid as one crash-safe,\n"
        "resumable campaign, configured by these environment variables:\n\n"
        "  D2M_CONFIG_FILTER      configs to run (pattern list)\n"
        "  D2M_SUITE_FILTER       suites to run (pattern list)\n"
        "  D2M_BENCH_FILTER       benchmarks to run (pattern list)\n"
        "  D2M_INSTS_PER_CORE     measured instructions per core\n"
        "  D2M_WARMUP             warm-up instructions per core\n"
        "  D2M_NODES              node count\n"
        "  D2M_SEED               workload seed for every benchmark\n"
        "  D2M_JOBS               concurrent cells\n"
        "  D2M_STORE_DIR          durable result store; enables resume\n"
        "  D2M_RESUME=0           re-execute cells the store holds\n"
        "  D2M_BUILD_FINGERPRINT  binary fingerprint in the run keys\n"
        "  D2M_STATS_JSON         combined stats document\n"
        "  D2M_INTERVAL_INSTS     interval stats period, instructions\n"
        "  D2M_TRACE_FILE         JSONL event trace\n"
        "  D2M_HEARTBEAT          progress line every N M-instructions\n"
        "  D2M_SELFPROF=1         sampled self-profiler\n"
        "  D2M_QUIET=1            no per-cell progress lines\n\n"
        "Test knobs, which exercise the crash paths:\n\n"
        "  D2M_CAMPAIGN_KILL_AFTER=N    SIGKILL when the N-th cell starts\n"
        "  D2M_CAMPAIGN_SIGINT_AFTER=N  SIGINT when the N-th cell starts\n"
        "  D2M_CAMPAIGN_FAIL_BENCH=x    fail every cell of benchmark x\n\n"
        "A campaign kept in a file is a shell env file:\n"
        "  set -a; . fig5.env; set +a; d2m_campaign\n",
        out);
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace d2m;

    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--help") == 0 ||
            std::strcmp(argv[i], "-h") == 0) {
            usage(stdout);
            return 0;
        }
        std::fprintf(stderr, "d2m_campaign: unknown argument '%s'\n",
                     argv[i]);
        usage(stderr);
        return 1;
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
