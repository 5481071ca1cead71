/**
 * @file
 * Section IV-D: dynamic (scrambled) indexing. The paper stores a
 * random index value with each region's metadata to eliminate conflict
 * misses from malicious power-of-two access patterns, "such as LU",
 * yielding a dramatic energy reduction for those applications.
 *
 * This bench runs the Splash2x `lu` preset (256 KiB power-of-two
 * strides) on D2M-NS with and without dynamic indexing, plus a benign
 * workload to show the optimization does no harm.
 */

#include "bench_common.hh"

#include "d2m/d2m_system.hh"

int
main()
{
    using namespace d2m;
    using namespace d2m::bench;

    banner("Section IV-D: dynamic indexing on power-of-two strides",
           "Sembrant et al., HPCA'17, Section IV-D (LU)");

    std::vector<NamedWorkload> picks;
    for (const auto &wl : allSuites()) {
        if (wl.name == "lu" || wl.name == "water")
            picks.push_back(wl);
    }

    TextTable table({"benchmark", "indexing", "IPC", "EDP vs off",
                     "msgs/ki", "DRAM accesses", "miss lat"});
    for (const auto &wl : picks) {
        double edp_off = 0;
        for (bool scramble : {false, true}) {
            const SweepOptions opts = benchOptions();
            const RunLength len = resolveRunLength(wl, opts);
            // Build D2M-NS directly and set the toggle after the
            // preset, which turns it off.
            SystemParams ps =
                paramsFor(ConfigKind::D2mNs, resolveBaseParams(opts));
            ps.dynamicIndexing = scramble;
            auto sys = std::make_unique<D2mSystem>("d2m", ps);
            auto streams = makeStreams(wl, ps.numNodes, ps.lineSize,
                                       len.measured + len.warmup);
            RunOptions ropts;
            ropts.warmupInstsPerCore = len.warmup;
            const RunResult run = runMulticore(*sys, streams, ropts);
            const Metrics m = collectMetrics(ConfigKind::D2mNs, wl.suite,
                                             wl.name, *sys, run);
            if (!scramble)
                edp_off = m.edp;
            table.addRow({wl.name, scramble ? "scrambled" : "plain",
                          fmt(m.ipc, 2),
                          fmt(edp_off > 0 ? m.edp / edp_off : 1.0, 2) +
                              "x",
                          fmt(m.msgsPerKiloInst, 1),
                          std::to_string(sys->memory().reads.value() +
                                         sys->memory().writes.value()),
                          fmt(m.avgMissLatency, 0)});
        }
        table.addSeparator();
    }
    std::printf("%s\n", table.render().c_str());
    std::printf("[paper: dramatic improvement for LU-like malicious "
                "patterns; no effect on benign workloads]\n");
    return 0;
}
