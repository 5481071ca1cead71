/**
 * @file
 * Tests for the harness pieces: geometry, golden memory, report
 * tables, metric extraction and workload filtering.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>

#include "harness/report.hh"
#include "harness/runner.hh"
#include "mem/geometry.hh"
#include "mem/golden_memory.hh"

namespace d2m
{
namespace
{

TEST(Geometry, SetsAndIndexing)
{
    SetAssocGeometry g(512, 8, 6);  // 64 sets of 64B lines
    EXPECT_EQ(g.numSets(), 64u);
    EXPECT_EQ(g.assoc(), 8u);
    EXPECT_EQ(g.setIndex(0x0), 0u);
    EXPECT_EQ(g.setIndex(64), 1u);
    EXPECT_EQ(g.setIndex(64u * 64u), 0u);  // wraps at 64 sets
    EXPECT_NE(g.setIndex(64, /*scramble=*/5), g.setIndex(64, 0));
}

TEST(GoldenMemory, LastStoreWins)
{
    GoldenMemory g;
    EXPECT_EQ(g.load(0x10), 0u);
    g.store(0x10, 5);
    g.store(0x10, 7);
    g.store(0x11, 9);
    EXPECT_EQ(g.load(0x10), 7u);
    EXPECT_EQ(g.load(0x11), 9u);
    EXPECT_EQ(g.linesTouched(), 2u);
}

TEST(Report, TableAlignsColumns)
{
    TextTable t({"a", "bench"});
    t.addRow({"x", "1"});
    t.addSeparator();
    t.addRow({"longer", "2"});
    const std::string out = t.render();
    EXPECT_NE(out.find("a       bench"), std::string::npos);
    EXPECT_NE(out.find("longer  2"), std::string::npos);
    EXPECT_NE(out.find("---"), std::string::npos);
}

TEST(Report, FmtAndGeomean)
{
    EXPECT_EQ(fmt(3.14159, 2), "3.14");
    EXPECT_EQ(fmt(2.0, 0), "2");
    EXPECT_NEAR(geomean({2.0, 8.0}), 4.0, 1e-9);
    EXPECT_NEAR(geomean({1.0, 1.0, 1.0}), 1.0, 1e-9);
    EXPECT_EQ(geomean({}), 0.0);
    EXPECT_NEAR(geomean({0.0, 4.0}), 4.0, 1e-9);  // non-positive skipped
}

TEST(Report, FindRowAndSuiteMeans)
{
    std::vector<Metrics> rows(3);
    rows[0].benchmark = "a";
    rows[0].config = "X";
    rows[0].suite = "s";
    rows[0].ipc = 1.0;
    rows[1].benchmark = "b";
    rows[1].config = "X";
    rows[1].suite = "s";
    rows[1].ipc = 3.0;
    rows[2].benchmark = "a";
    rows[2].config = "Y";
    rows[2].suite = "s";
    rows[2].ipc = 9.0;
    EXPECT_EQ(findRow(rows, "a", "Y")->ipc, 9.0);
    EXPECT_EQ(findRow(rows, "c", "X"), nullptr);
    EXPECT_DOUBLE_EQ(
        suiteMean(rows, "s", "X", [](const Metrics &m) { return m.ipc; }),
        2.0);
    EXPECT_NEAR(suiteGeomean(rows, "s", "X",
                             [](const Metrics &m) { return m.ipc; }),
                std::sqrt(3.0), 1e-9);
    const auto names = benchmarksIn(rows);
    ASSERT_EQ(names.size(), 2u);
    EXPECT_EQ(names[0], "a");
}

TEST(Runner, FilterByEnv)
{
    setenv("D2M_SUITE_FILTER", "database", 1);
    const auto filtered = filteredWorkloads(allSuites());
    unsetenv("D2M_SUITE_FILTER");
    ASSERT_FALSE(filtered.empty());
    for (const auto &wl : filtered)
        EXPECT_EQ(wl.suite, "database");
}

TEST(Runner, MatchesFilterSubstringListAndExact)
{
    // Single substring pattern (historical behavior).
    EXPECT_TRUE(matchesFilter("database", "data"));
    EXPECT_FALSE(matchesFilter("database", "mobile"));

    // Comma-separated list: any pattern may match.
    EXPECT_TRUE(matchesFilter("mobile", "database,mobile"));
    EXPECT_TRUE(matchesFilter("database", "database,mobile"));
    EXPECT_FALSE(matchesFilter("hpc", "database,mobile"));

    // "=name" is exact: no substring spill-over.
    EXPECT_TRUE(matchesFilter("fft", "=fft"));
    EXPECT_FALSE(matchesFilter("fft2d", "=fft"));
    EXPECT_TRUE(matchesFilter("fft2d", "fft"));

    // Mixed forms and stray separators.
    EXPECT_TRUE(matchesFilter("fft2d", "=fft,2d"));
    EXPECT_FALSE(matchesFilter("hpc", "=fft,2d"));
    EXPECT_TRUE(matchesFilter("anything", ""));
    EXPECT_TRUE(matchesFilter("anything", ",,"));
    EXPECT_TRUE(matchesFilter("fft", ",=fft,"));
}

TEST(Runner, FilterByEnvCommaListAndExact)
{
    setenv("D2M_SUITE_FILTER", "database,mobile", 1);
    auto filtered = filteredWorkloads(allSuites());
    unsetenv("D2M_SUITE_FILTER");
    ASSERT_FALSE(filtered.empty());
    bool saw_database = false, saw_mobile = false;
    for (const auto &wl : filtered) {
        EXPECT_TRUE(wl.suite == "database" || wl.suite == "mobile")
            << wl.suite;
        saw_database |= wl.suite == "database";
        saw_mobile |= wl.suite == "mobile";
    }
    EXPECT_TRUE(saw_database);
    EXPECT_TRUE(saw_mobile);

    // Exact form: pick one concrete benchmark and expect only it.
    const auto all = allSuites();
    ASSERT_FALSE(all.empty());
    const std::string name = all.front().name;
    setenv("D2M_BENCH_FILTER", ("=" + name).c_str(), 1);
    filtered = filteredWorkloads(allSuites());
    unsetenv("D2M_BENCH_FILTER");
    ASSERT_FALSE(filtered.empty());
    for (const auto &wl : filtered)
        EXPECT_EQ(wl.name, name);
}

TEST(Runner, MetricsAreInternallyConsistent)
{
    WorkloadParams p;
    p.instructionsPerCore = 5'000;
    NamedWorkload wl{"t", "t", p};
    SweepOptions opts;
    opts.verbose = false;
    opts.warmupInstsPerCore = 1'000;
    const Metrics m = runOne(ConfigKind::D2mNsR, wl, opts);
    EXPECT_EQ(m.instructions, 4u * 5'000u);
    EXPECT_GT(m.cycles, 0u);
    EXPECT_GT(m.energyPj, 0.0);
    EXPECT_NEAR(m.edp, m.energyPj * static_cast<double>(m.cycles),
                1e-3 * m.edp);
    EXPECT_NEAR(m.ipc,
                static_cast<double>(m.instructions) /
                    static_cast<double>(m.cycles),
                1e-9);
}

NamedWorkload
tinyWorkload()
{
    WorkloadParams p;
    p.instructionsPerCore = 2'000;
    return {"t", "t", p};
}

TEST(Runner, ResolversPreferOptionsThenEnvThenDefaults)
{
    ::unsetenv("D2M_INSTS_PER_CORE");
    ::unsetenv("D2M_WARMUP");
    ::unsetenv("D2M_NODES");
    const NamedWorkload wl = tinyWorkload();
    SweepOptions opts;

    // Measured: option, then D2M_INSTS_PER_CORE, then the workload's.
    EXPECT_EQ(resolveRunLength(wl, opts).measured, 2'000u);
    ::setenv("D2M_INSTS_PER_CORE", "1200", 1);
    EXPECT_EQ(resolveRunLength(wl, opts).measured, 1'200u);
    opts.instsPerCore = 900;
    EXPECT_EQ(resolveRunLength(wl, opts).measured, 900u);
    ::unsetenv("D2M_INSTS_PER_CORE");

    // Warm-up: option (0 included), then D2M_WARMUP, then the
    // measured length.
    EXPECT_EQ(resolveRunLength(wl, opts).warmup, 900u);
    ::setenv("D2M_WARMUP", "700", 1);
    EXPECT_EQ(resolveRunLength(wl, opts).warmup, 700u);
    opts.warmupInstsPerCore = 300;
    EXPECT_EQ(resolveRunLength(wl, opts).warmup, 300u);
    opts.warmupInstsPerCore = 0;
    EXPECT_EQ(resolveRunLength(wl, opts).warmup, 0u);
    ::unsetenv("D2M_WARMUP");

    // D2M_NODES sets numNodes and nothing else.
    opts.baseParams.numNodes = 2;
    opts.baseParams.md1Entries = 64;
    EXPECT_EQ(resolveBaseParams(opts).numNodes, 2u);
    ::setenv("D2M_NODES", "8", 1);
    const SystemParams p = resolveBaseParams(opts);
    ::unsetenv("D2M_NODES");
    EXPECT_EQ(p.numNodes, 8u);
    EXPECT_EQ(p.md1Entries, 64u);
}

SweepOptions
tinySweep()
{
    SweepOptions opts;
    opts.verbose = false;
    opts.warmupInstsPerCore = 500;
    opts.jobs = 1;
    // A cell that starts ends the process with a distinct code, so the
    // death test below also proves the grid is rejected before any
    // cell runs.
    opts.preRunHook = [](const NamedWorkload &, unsigned) {
        std::_Exit(7);
    };
    return opts;
}

TEST(RunnerDeathTest, ImpossibleGridIsRejectedBeforeAnyCell)
{
    setenv("D2M_NODES", "16", 1);
    EXPECT_EXIT(runSweep({ConfigKind::Base2L, ConfigKind::D2mFs,
                          ConfigKind::D2mNsR},
                         {tinyWorkload()}, tinySweep()),
                testing::ExitedWithCode(1),
                "^fatal: config D2M-FS cannot be built: "
                "LI encoding supports at most 8 nodes, not 16\n");
    unsetenv("D2M_NODES");
}

TEST(RunnerDeathTest, SixteenWayL1IsRejectedBeforeAnyCell)
{
    // Table I's 001WWW names at most 8 L1 ways.
    SweepOptions opts = tinySweep();
    opts.baseParams.l1d.assoc = 16;
    EXPECT_EXIT(runSweep({ConfigKind::Base2L, ConfigKind::D2mNsR},
                         {tinyWorkload()}, opts),
                testing::ExitedWithCode(1),
                "^fatal: config D2M-NS-R cannot be built: "
                "LI encoding supports at most 8 L1-D ways, not 16\n");
}

TEST(Runner, BaselineGridRunsAtSixteenNodes)
{
    setenv("D2M_NODES", "16", 1);
    SweepOptions opts = tinySweep();
    opts.preRunHook = nullptr;
    const auto rows = runSweep({ConfigKind::Base2L}, {tinyWorkload()},
                               opts);
    unsetenv("D2M_NODES");
    ASSERT_EQ(rows.size(), 1u);
    EXPECT_EQ(rows[0].status, "ok") << rows[0].errorMessage;
    EXPECT_EQ(rows[0].instructions, 16u * 2'000u);
}

TEST(Runner, BaselineGridRunsWithSixteenWayL1)
{
    SweepOptions opts = tinySweep();
    opts.preRunHook = nullptr;
    opts.baseParams.l1d.assoc = 16;
    const auto rows = runSweep({ConfigKind::Base2L}, {tinyWorkload()},
                               opts);
    ASSERT_EQ(rows.size(), 1u);
    EXPECT_EQ(rows[0].status, "ok") << rows[0].errorMessage;
    EXPECT_EQ(rows[0].valueErrors, 0u);
}

} // namespace
} // namespace d2m
