/**
 * @file
 * Tests for the interval statistics engine (obs/snapshot.hh): boundary
 * crossing, warmup-reset semantics (post-warmup deltas must sum to the
 * final counters), env-variable construction, and a full multicore run
 * reconciling every interval delta against the live stats tree.
 */

#include <gtest/gtest.h>

#include <map>

#include "common/stats.hh"
#include "cpu/multicore.hh"
#include "harness/configs.hh"
#include "obs/json.hh"
#include "obs/snapshot.hh"
#include "workload/suites.hh"

namespace d2m
{
namespace
{

TEST(Snapshot, ClosesIntervalOnInstructionBoundary)
{
    stats::StatGroup root("sys");
    stats::Counter c(&root, "c", "");
    obs::StatSnapshotter snap(root, 100);

    c += 5;
    snap.tick(50, 10);  // below the boundary: nothing closes
    EXPECT_TRUE(snap.rows().empty());
    c += 7;
    snap.tick(100, 20);
    ASSERT_EQ(snap.rows().size(), 1u);
    const obs::IntervalRow &row = snap.rows()[0];
    EXPECT_EQ(row.idx, 0u);
    EXPECT_TRUE(row.warmup);  // no statsReset() yet
    EXPECT_EQ(row.startInsts, 0u);
    EXPECT_EQ(row.endInsts, 100u);
    EXPECT_EQ(row.startTick, 0u);
    EXPECT_EQ(row.endTick, 20u);
    ASSERT_EQ(snap.paths().size(), 1u);
    EXPECT_EQ(snap.paths()[0], "sys.c");
    EXPECT_EQ(row.deltas[0], 12u);

    // Next interval carries only the new increments.
    c += 3;
    snap.tick(200, 40);
    ASSERT_EQ(snap.rows().size(), 2u);
    EXPECT_EQ(snap.rows()[1].deltas[0], 3u);
    EXPECT_EQ(snap.rows()[1].startInsts, 100u);
}

TEST(Snapshot, BurstAcrossSeveralBoundariesYieldsOneCoveringRow)
{
    stats::StatGroup root("sys");
    stats::Counter c(&root, "c", "");
    obs::StatSnapshotter snap(root, 10);
    c += 9;
    snap.tick(55, 7);  // crosses boundaries 10..50 at once
    ASSERT_EQ(snap.rows().size(), 1u);
    EXPECT_EQ(snap.rows()[0].endInsts, 55u);
    EXPECT_EQ(snap.rows()[0].deltas[0], 9u);
    // The next boundary is 60, not a backlog of skipped ones.
    c += 1;
    snap.tick(59, 8);
    EXPECT_EQ(snap.rows().size(), 1u);
    snap.tick(60, 9);
    ASSERT_EQ(snap.rows().size(), 2u);
    EXPECT_EQ(snap.rows()[1].startInsts, 55u);
}

TEST(Snapshot, PostWarmupDeltasSumToFinalCounters)
{
    stats::StatGroup root("sys");
    stats::StatGroup noc("noc", &root);
    stats::Counter a(&root, "a", "");
    stats::Counter b(&noc, "b", "");
    stats::Histogram2 h(&root, "lat", "");
    obs::StatSnapshotter snap(root, 100);

    // Warmup traffic: closed against pre-reset values.
    a += 40;
    b += 2;
    h.sample(10);
    snap.tick(100, 5);
    a += 9;  // partial interval in flight when the reset fires
    snap.statsReset(150, 8);
    root.resetStats();

    // Measured phase.
    a += 3;
    h.sample(20);
    h.sample(30);
    snap.tick(250, 12);
    b += 4;
    a += 1;
    snap.finish(300, 20);

    ASSERT_EQ(snap.rows().size(), 4u);
    EXPECT_TRUE(snap.rows()[0].warmup);
    EXPECT_TRUE(snap.rows()[1].warmup);   // the partial reset row
    EXPECT_EQ(snap.rows()[1].deltas[0], 9u);
    EXPECT_FALSE(snap.rows()[2].warmup);
    EXPECT_FALSE(snap.rows()[3].warmup);

    // The acceptance property: post-warmup deltas sum exactly to the
    // final counter values for every tracked stat.
    std::map<std::string, std::uint64_t> sums;
    for (const obs::IntervalRow &row : snap.rows()) {
        if (row.warmup)
            continue;
        for (std::size_t i = 0; i < row.deltas.size(); ++i)
            sums[snap.paths()[i]] += row.deltas[i];
    }
    EXPECT_EQ(sums["sys.a"], a.value());
    EXPECT_EQ(sums["sys.noc.b"], b.value());
    EXPECT_EQ(sums["sys.lat"], h.totalSamples());
}

TEST(Snapshot, RowsJsonIsValidAndSparse)
{
    stats::StatGroup root("sys");
    stats::Counter a(&root, "a", "");
    stats::Counter zero(&root, "zero", "");
    obs::StatSnapshotter snap(root, 10);
    a += 6;
    snap.tick(10, 3);
    json::Value v;
    std::string err;
    ASSERT_TRUE(json::parse(snap.rowsJson(), v, err))
        << snap.rowsJson() << ": " << err;
    ASSERT_TRUE(v.isArray());
    ASSERT_EQ(v.array.size(), 1u);
    EXPECT_EQ(v.array[0]["idx"].asNumber(), 0.0);
    EXPECT_EQ(v.array[0]["deltas"]["sys.a"].asNumber(), 6.0);
    // Zero deltas are omitted from the sparse encoding.
    EXPECT_TRUE(v.array[0]["deltas"]["sys.zero"].isNull());
}

TEST(Snapshot, FromEnvDisabledReturnsNull)
{
    ::unsetenv("D2M_INTERVAL_INSTS");
    stats::StatGroup root("sys");
    EXPECT_EQ(obs::StatSnapshotter::fromEnv(root), nullptr);
}

TEST(Snapshot, FromEnvReadsPeriods)
{
    ::setenv("D2M_INTERVAL_INSTS", "5000", 1);
    stats::StatGroup root("sys");
    stats::Counter a(&root, "a", "");
    auto snap = obs::StatSnapshotter::fromEnv(root);
    ASSERT_NE(snap, nullptr);
    a += 1;
    snap->tick(5000, 1);
    EXPECT_EQ(snap->rows().size(), 1u);
    ::unsetenv("D2M_INTERVAL_INSTS");
}

TEST(Snapshot, RunWithoutSnapshotterIsANoOp)
{
    // RunOptions::snapshotter defaults to null; the multicore loop
    // must run cleanly without one attached.
    auto sys = makeSystem(ConfigKind::Base2L);
    WorkloadParams p;
    p.instructionsPerCore = 200;
    p.seed = 7;
    std::vector<std::unique_ptr<AccessStream>> streams;
    for (unsigned c = 0; c < sys->params().numNodes; ++c)
        streams.push_back(std::make_unique<SyntheticStream>(p, c, 64));
    RunOptions opts;
    EXPECT_EQ(opts.snapshotter, nullptr);
    const RunResult r = runMulticore(*sys, streams, opts);
    EXPECT_EQ(r.valueErrors, 0u);
}

// ------------------------------------------------- full-system check

/** Flatten @p g's stats tree the way the snapshotter does. */
void
flattenLive(const stats::StatGroup &g,
            std::map<std::string, const stats::StatBase *> &out)
{
    for (const stats::StatBase *s : g.stats())
        out[g.fullStatPath() + "." + s->name()] = s;
    for (const stats::StatGroup *child : g.children())
        flattenLive(*child, out);
}

TEST(Snapshot, MulticoreRunDeltasReconcileAgainstLiveStats)
{
    auto sys = makeSystem(ConfigKind::D2mNsR);

    WorkloadParams p;
    p.instructionsPerCore = 4'000;
    p.sharedFootprint = 64 * 1024;
    p.sharedFraction = 0.2;
    p.seed = 11;
    std::vector<std::unique_ptr<AccessStream>> streams;
    for (unsigned c = 0; c < sys->params().numNodes; ++c)
        streams.push_back(std::make_unique<SyntheticStream>(p, c, 64));

    obs::StatSnapshotter snap(*sys, 1'000);
    RunOptions opts;
    opts.warmupInstsPerCore = 2'000;
    opts.snapshotter = &snap;
    const RunResult r = runMulticore(*sys, streams, opts);
    EXPECT_EQ(r.valueErrors, 0u);

    ASSERT_GE(snap.rows().size(), 3u);
    bool saw_warm = false, saw_measured = false;
    for (const obs::IntervalRow &row : snap.rows()) {
        (row.warmup ? saw_warm : saw_measured) = true;
        EXPECT_LE(row.startInsts, row.endInsts);
        EXPECT_LE(row.startTick, row.endTick);
    }
    EXPECT_TRUE(saw_warm);
    EXPECT_TRUE(saw_measured);

    // Every stat's post-warmup interval deltas must sum to its live
    // final value -- the wiring in multicore.cc closes the warmup
    // interval before resetStats() and the last one at run end.
    std::vector<std::uint64_t> sums(snap.paths().size(), 0);
    for (const obs::IntervalRow &row : snap.rows()) {
        if (row.warmup)
            continue;
        for (std::size_t i = 0; i < row.deltas.size(); ++i)
            sums[i] += row.deltas[i];
    }
    std::map<std::string, const stats::StatBase *> live;
    flattenLive(*sys, live);
    ASSERT_EQ(live.size(), snap.paths().size());
    std::uint64_t nonzero = 0;
    for (std::size_t i = 0; i < snap.paths().size(); ++i) {
        const auto it = live.find(snap.paths()[i]);
        ASSERT_NE(it, live.end()) << snap.paths()[i];
        EXPECT_EQ(sums[i], it->second->snapshotValue())
            << snap.paths()[i];
        nonzero += sums[i] != 0;
    }
    EXPECT_GT(nonzero, 10u);  // the run actually exercised the system
}

} // namespace
} // namespace d2m
