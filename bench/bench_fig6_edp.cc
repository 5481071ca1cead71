/**
 * @file
 * Figure 6: cache-hierarchy energy-delay product normalized to
 * Base-2L. The paper reports D2M-NS-R improving EDP by 54% vs the
 * mobile baseline (Base-2L) and 40% vs the server baseline (Base-3L).
 */

#include "bench_common.hh"

int
main()
{
    using namespace d2m;
    using namespace d2m::bench;

    banner("Figure 6: cache hierarchy EDP normalized to Base-2L",
           "Sembrant et al., HPCA'17, Figure 6 (-54% vs Base-2L, "
           "-40% vs Base-3L)");

    const auto workloads = benchWorkloads();
    const auto configs = filteredConfigs(allConfigs());
    const auto rows = runSweep(configs, workloads, benchOptions());
    writeBenchJson("fig6_edp", rows);

    TextTable table({"suite", "benchmark", "B-2L", "B-3L", "D2M-FS",
                     "D2M-NS", "D2M-NS-R"});
    std::string last_suite;
    for (const auto &name : benchmarksIn(rows)) {
        const Metrics *b2 = findRow(rows, name, "Base-2L");
        if (!b2 || b2->edp <= 0)
            continue;
        if (b2->suite != last_suite && !last_suite.empty())
            table.addSeparator();
        last_suite = b2->suite;
        std::vector<std::string> cells{b2->suite, name};
        for (const auto kind : configs) {
            const Metrics *m = findRow(rows, name, configKindName(kind));
            cells.push_back(fmt(m ? m->edp / b2->edp : 0, 2));
        }
        table.addRow(std::move(cells));
    }
    std::printf("%s\n", table.render().c_str());

    auto overall = [&](const char *config, const char *base,
                       const char *format = "%.2fx (%+.0f%%)") {
        std::vector<double> ratios;
        for (const auto &name : benchmarksIn(rows)) {
            const Metrics *b = findRow(rows, name, base);
            const Metrics *m = findRow(rows, name, config);
            if (b && m && b->edp > 0)
                ratios.push_back(m->edp / b->edp);
        }
        return geomeanSummary(ratios, format);
    };

    std::printf("EDP of D2M-NS-R (geomean):\n");
    std::printf("  vs Base-2L: %s   [paper: -54%%]\n",
                overall("D2M-NS-R", "Base-2L").c_str());
    std::printf("  vs Base-3L: %s   [paper: -40%%]\n",
                overall("D2M-NS-R", "Base-3L").c_str());
    std::printf("Per-step EDP vs Base-2L (geomean): FS %s, NS %s, "
                "NS-R %s\n",
                overall("D2M-FS", "Base-2L", "%.2fx").c_str(),
                overall("D2M-NS", "Base-2L", "%.2fx").c_str(),
                overall("D2M-NS-R", "Base-2L", "%.2fx").c_str());
    return d2m::bench::benchExitCode();
}
