/**
 * @file
 * Harness-scaling benchmark: the two numbers backing this repo's
 * host-performance claims.
 *
 *  1. Container hot path — FlatMap vs std::unordered_map throughput
 *     on the page-table/golden-memory access pattern, plus the
 *     resulting single-run simulation rate (KIPS).
 *  2. Sweep parallelism — wall-clock of the same sweep run serially
 *     and with 4 pool jobs (the speedup column is only meaningful on
 *     a host with >= 4 hardware threads; the binary prints the
 *     detected count).
 *
 * Unlike the figure/table benches these numbers measure the machine,
 * so the checked-in baseline (bench/baselines/BENCH_harness_scaling
 * .json) documents a reference host rather than gating CI: the CI
 * workflow records fresh numbers into the job summary instead.
 */

#include <chrono>
#include <cstdio>
#include <thread>
#include <unordered_map>

#include "bench_common.hh"
#include "common/flat_map.hh"
#include "common/rng.hh"

namespace
{

using namespace d2m;
using namespace d2m::bench;

double
wallSeconds(const std::chrono::steady_clock::time_point &t0)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
}

/**
 * The simulator's hot map pattern: a working set of line addresses,
 * mostly lookups with a store-through update, occasional growth.
 * @return million operations per second.
 */
template <typename Map>
double
containerMops(std::uint64_t ops)
{
    Map m;
    Rng rng(42);
    const std::uint64_t working_set = 1 << 16;
    const auto t0 = std::chrono::steady_clock::now();
    std::uint64_t sink = 0;
    for (std::uint64_t i = 0; i < ops; ++i) {
        const std::uint64_t key = rng.below(working_set) * 64;
        switch (i & 7) {
          case 0:
            m[key] = i;  // store
            break;
          case 1:
            m.erase(key ^ 64);  // churn
            break;
          default: {  // load
            auto it = m.find(key);
            if (it != m.end())
                sink += it->second;
            break;
          }
        }
    }
    const double sec = wallSeconds(t0);
    // Fold the sink into the timing guard so the loop cannot be
    // optimized away.
    if (sink == ~0ull)
        std::fprintf(stderr, "...");
    return static_cast<double>(ops) / sec / 1e6;
}

double
sweepWallSec(const std::vector<ConfigKind> &configs,
             const std::vector<NamedWorkload> &workloads, unsigned jobs)
{
    SweepOptions opts = benchOptions();
    opts.verbose = false;
    opts.jobs = jobs;
    const auto t0 = std::chrono::steady_clock::now();
    const auto rows = runSweep(configs, workloads, opts);
    const double sec = wallSeconds(t0);
    if (rows.empty())
        std::fprintf(stderr, "warn: empty sweep\n");
    return sec;
}

} // namespace

int
main()
{
    banner("Harness scaling: flat-hash hot paths + parallel sweep pool",
           "host-performance engineering (no paper figure)");

    // ---- 1. Container throughput ------------------------------------
    const std::uint64_t ops = 8'000'000;
    const double mops_std =
        containerMops<std::unordered_map<std::uint64_t, std::uint64_t>>(
            ops);
    const double mops_flat =
        containerMops<FlatMap<std::uint64_t, std::uint64_t>>(ops);
    std::printf("container hot path (%llu mixed ops):\n",
                static_cast<unsigned long long>(ops));
    std::printf("  std::unordered_map : %8.1f Mops/s\n", mops_std);
    std::printf("  FlatMap            : %8.1f Mops/s\n", mops_flat);
    std::printf("  speedup            : %8.2fx\n\n", mops_flat / mops_std);

    // ---- 2. Single-run simulation rate ------------------------------
    const auto reps = representativeWorkloads();
    SweepOptions one = benchOptions();
    one.verbose = false;
    double kips = 0;
    if (!reps.empty()) {
        const Metrics m = runOne(ConfigKind::D2mNsR, reps.front(), one);
        kips = m.simKips;
        std::printf("single run (%s/%s on D2M-NS-R): %.0f KIPS\n\n",
                    reps.front().suite.c_str(), reps.front().name.c_str(),
                    kips);
    }

    // ---- 3. Sweep wall-clock, serial vs 4 jobs ----------------------
    const auto configs = filteredConfigs(allConfigs());
    std::printf("sweep: %zu configs x %zu workloads, host has %u "
                "hardware threads\n",
                configs.size(), reps.size(),
                std::thread::hardware_concurrency());
    const double serial_sec = sweepWallSec(configs, reps, 1);
    const double jobs4_sec = sweepWallSec(configs, reps, 4);
    std::printf("  serial      : %7.2f s\n", serial_sec);
    std::printf("  D2M_JOBS=4  : %7.2f s\n", jobs4_sec);
    std::printf("  speedup     : %7.2fx\n", serial_sec / jobs4_sec);

    // ---- JSON export (D2M_BENCH_JSON_DIR) ---------------------------
    if (const char *dir = std::getenv("D2M_BENCH_JSON_DIR")) {
        const std::string path =
            std::string(dir) + "/BENCH_harness_scaling.json";
        std::FILE *f = std::fopen(path.c_str(), "w");
        if (!f) {
            std::fprintf(stderr, "warn: cannot write %s\n", path.c_str());
            return 0;
        }
        // All fields are host measurements: named *_wall_sec / *_kips
        // / *_mops so regression tooling knows to ignore them.
        std::fprintf(f,
                     "{\"bench\":\"harness_scaling\","
                     "\"hardware_threads\":%u,"
                     "\"container_std_mops\":%.1f,"
                     "\"container_flat_mops\":%.1f,"
                     "\"container_speedup\":%.2f,"
                     "\"single_run_kips\":%.0f,"
                     "\"sweep_serial_wall_sec\":%.2f,"
                     "\"sweep_jobs4_wall_sec\":%.2f,"
                     "\"sweep_speedup\":%.2f}\n",
                     std::thread::hardware_concurrency(), mops_std,
                     mops_flat, mops_flat / mops_std, kips, serial_sec,
                     jobs4_sec, serial_sec / jobs4_sec);
        std::fclose(f);
        std::fprintf(stderr, "wrote %s\n", path.c_str());
    }
    return d2m::bench::benchExitCode();
}
