/**
 * @file
 * Figure 7: speedup relative to Base-2L with infinite bandwidth, plus
 * the Section V-D latency claim (D2M-NS-R reduces average L1 miss
 * latency by ~30%). Paper: D2M-NS-R averages +8.5% (max +28% for
 * Database); Base-3L averages +4%.
 */

#include "bench_common.hh"

int
main()
{
    using namespace d2m;
    using namespace d2m::bench;

    banner("Figure 7: speedup over Base-2L (infinite bandwidth)",
           "Sembrant et al., HPCA'17, Figure 7 (avg +8.5%, max +28%) "
           "and Section V-D (-30% L1 miss latency)");

    const auto workloads = benchWorkloads();
    const auto configs = filteredConfigs(allConfigs());
    const auto rows = runSweep(configs, workloads, benchOptions());
    writeBenchJson("fig7_speedup", rows);

    TextTable table({"suite", "benchmark", "B-3L", "D2M-FS", "D2M-NS",
                     "D2M-NS-R", "missLat NS-R/B-2L"});
    std::string last_suite;
    for (const auto &name : benchmarksIn(rows)) {
        const Metrics *b2 = findRow(rows, name, "Base-2L");
        const Metrics *nsr = findRow(rows, name, "D2M-NS-R");
        if (!b2 || !nsr || b2->ipc <= 0)
            continue;
        if (b2->suite != last_suite && !last_suite.empty())
            table.addSeparator();
        last_suite = b2->suite;
        std::vector<std::string> cells{b2->suite, name};
        for (const char *cfg :
             {"Base-3L", "D2M-FS", "D2M-NS", "D2M-NS-R"}) {
            const Metrics *m = findRow(rows, name, cfg);
            cells.push_back(
                m ? fmt(100.0 * (m->ipc / b2->ipc - 1), 1) + "%" : "-");
        }
        cells.push_back(
            fmt(nsr->avgMissLatency / std::max(1.0, b2->avgMissLatency),
                2) + "x");
        table.addRow(std::move(cells));
    }
    std::printf("%s\n", table.render().c_str());

    // Geomean speedup in % through @p format; "n/a" without a
    // (Base-2L, config) pair, as in geomeanSummary().
    auto speedup = [&](const char *config, const std::string &suite,
                       const char *format) -> std::string {
        std::vector<double> r;
        for (const auto &name : benchmarksIn(rows)) {
            const Metrics *b = findRow(rows, name, "Base-2L");
            const Metrics *m = findRow(rows, name, config);
            if (b && m && b->ipc > 0 &&
                (suite.empty() || b->suite == suite)) {
                r.push_back(m->ipc / b->ipc);
            }
        }
        if (r.empty())
            return "n/a";
        return vformat(format, 100.0 * (geomean(r) - 1));
    };

    std::printf("Speedup over Base-2L (geomean):\n");
    for (const char *cfg : {"Base-3L", "D2M-FS", "D2M-NS", "D2M-NS-R"}) {
        std::printf("  %-9s all %s  |", cfg,
                    speedup(cfg, "", "%+6.1f%%").c_str());
        for (const auto &suite : suiteNames())
            std::printf(" %s %s", suite.c_str(),
                        speedup(cfg, suite, "%+.1f%%").c_str());
        std::printf("\n");
    }
    std::printf("  [paper: Base-3L +4%%, D2M-FS +5.7%%, D2M-NS +7%%, "
                "D2M-NS-R +8.5%% avg / +28%% Database]\n\n");

    std::vector<double> lat_ratios;
    for (const auto &name : benchmarksIn(rows)) {
        const Metrics *b = findRow(rows, name, "Base-2L");
        const Metrics *m = findRow(rows, name, "D2M-NS-R");
        if (b && m && b->avgMissLatency > 0)
            lat_ratios.push_back(m->avgMissLatency / b->avgMissLatency);
    }
    std::printf("Average L1 miss latency, D2M-NS-R vs Base-2L: %s"
                "   [paper: -30%%]\n",
                geomeanSummary(lat_ratios).c_str());

    std::printf("\nTail latency (L1 miss latency percentiles, "
                "cycles):\n%s\n",
                tailLatencyTable(rows).c_str());
    return d2m::bench::benchExitCode();
}
