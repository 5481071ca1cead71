/**
 * @file
 * Tests for the generic D2M architecture beyond the evaluated
 * configurations: the Figure 2 shape with a private unified L2 per
 * node ("Level = 1 or 2" in the Table I encoding), and 8-node systems
 * (the paper: "a generic D2M configuration for up to eight nodes").
 */

#include <gtest/gtest.h>

#include "d2m/d2m_system.hh"
#include "harness/runner.hh"
#include "test_util.hh"

namespace d2m
{
namespace
{

using test::load;
using test::run;
using test::store;

constexpr Addr base = 0x4000'0000;
constexpr Addr l1SetStride = 4096;

SystemParams
withL2()
{
    SystemParams p;
    p.l2.sizeBytes = 256 * 1024;
    p.l2.assoc = 8;
    return p;
}

TEST(D2mWithL2, L1VictimsMoveToL2Locally)
{
    // Figure 2 / Section III-A: nodes move cachelines between their
    // L1 and L2 without updating metadata in other nodes.
    D2mSystem sys("d2m", withL2());
    for (unsigned i = 0; i < 9; ++i)
        run(sys, 0, store(base + i * l1SetStride, i));
    // The displaced master went to the L2, not the LLC: no case E yet.
    EXPECT_EQ(sys.events().e.value(), 0u);
    const auto msgs = sys.noc().totalMessages.value();
    // Re-reading it is a local L2 hit, no interconnect traffic.
    const AccessResult res = run(sys, 0, load(base));
    EXPECT_EQ(res.loadValue, 0u);
    if (res.l1Miss) {
        EXPECT_EQ(res.level, ServiceLevel::L2);
    }
    EXPECT_EQ(sys.noc().totalMessages.value(), msgs);
    EXPECT_TRUE(test::invariantReport(sys).empty());
}

TEST(D2mWithL2, RemoteReadFindsLineInL2)
{
    D2mSystem sys("d2m", withL2());
    run(sys, 1, load(base));         // region becomes shared later
    run(sys, 0, store(base, 42));
    // Push node 0's master from L1 into its L2.
    for (unsigned i = 1; i < 9; ++i)
        run(sys, 0, store(base + i * l1SetStride, i));
    // Node 1 reads: master is tracked as "in node 0" (NodeID
    // granularity), and node 0's metadata resolves it to its L2.
    EXPECT_EQ(run(sys, 1, load(base)).loadValue, 42u);
    EXPECT_TRUE(test::invariantReport(sys).empty());
}

TEST(D2mWithL2, L2CapacityCascadesToLlc)
{
    SystemParams p = withL2();
    p.l2.sizeBytes = 32 * 1024;  // tiny L2: 64 sets... 8 ways = 64 lines
    D2mSystem sys("d2m", p);
    // Blow both the L1 set and the whole tiny L2.
    for (unsigned i = 0; i < 80; ++i)
        run(sys, 0, store(base + i * l1SetStride, i));
    EXPECT_GT(sys.events().e.value(), 0u);  // L2 -> LLC relocations
    for (unsigned i = 0; i < 80; ++i)
        EXPECT_EQ(run(sys, 0, load(base + i * l1SetStride)).loadValue, i);
    EXPECT_TRUE(test::invariantReport(sys).empty());
}

TEST(D2mWithL2, CoherentSweep)
{
    SystemParams p = withL2();
    WorkloadParams wp;
    wp.instructionsPerCore = 15'000;
    wp.sharedFootprint = 256 * 1024;
    wp.sharedFraction = 0.25;
    wp.privateFootprint = 512 * 1024;
    wp.seed = 99;
    auto sys = std::make_unique<D2mSystem>("d2m", p);
    std::vector<std::unique_ptr<AccessStream>> streams;
    for (unsigned c = 0; c < 4; ++c)
        streams.push_back(std::make_unique<SyntheticStream>(wp, c, 64));
    RunOptions opts;
    opts.invariantCheckPeriod = 4'000;
    const RunResult r = runMulticore(*sys, streams, opts);
    EXPECT_EQ(r.valueErrors, 0u) << r.firstError;
    EXPECT_EQ(r.invariantErrors, 0u) << r.firstError;
}

SystemParams
eightNodes(bool near_side)
{
    SystemParams p;
    p.numNodes = 8;
    p.nearSideLlc = near_side;
    if (near_side) {
        // Figure 3: 8 slices x 4 ways = the same 32 total ways.
        p.llc.assoc = 32;
    }
    return p;
}

TEST(D2mEightNodes, FarSideCoherentAcrossAllNodes)
{
    D2mSystem sys("d2m", eightNodes(false));
    run(sys, 0, store(base, 7));
    for (NodeId n = 1; n < 8; ++n)
        EXPECT_EQ(run(sys, n, load(base)).loadValue, 7u);
    run(sys, 7, store(base, 8));  // case C invalidates seven sharers
    for (NodeId n = 0; n < 8; ++n)
        EXPECT_EQ(run(sys, n, load(base)).loadValue, 8u);
    EXPECT_TRUE(test::invariantReport(sys).empty());
}

TEST(D2mEightNodes, NearSideSlicesWithFourWays)
{
    // The 1NNNWW LI reinterpretation: 8 slices x 4 ways.
    D2mSystem sys("d2m", eightNodes(true));
    EXPECT_EQ(sys.liCodec().slices(), 8u);
    EXPECT_EQ(sys.liCodec().sliceWays(), 4u);
    for (NodeId n = 0; n < 8; ++n)
        run(sys, n, store(base + Addr(n) * 1024, n));
    for (NodeId n = 0; n < 8; ++n)
        EXPECT_EQ(run(sys, (n + 3) % 8, load(base + Addr(n) * 1024))
                      .loadValue,
                  n);
    EXPECT_TRUE(test::invariantReport(sys).empty());
}

TEST(D2mEightNodes, WorkloadSweep)
{
    WorkloadParams wp;
    wp.instructionsPerCore = 8'000;
    wp.sharedFootprint = 128 * 1024;
    wp.sharedFraction = 0.3;
    wp.seed = 31;
    for (bool ns : {false, true}) {
        auto sys =
            std::make_unique<D2mSystem>("d2m", eightNodes(ns));
        std::vector<std::unique_ptr<AccessStream>> streams;
        for (unsigned c = 0; c < 8; ++c)
            streams.push_back(
                std::make_unique<SyntheticStream>(wp, c, 64));
        RunOptions opts;
        opts.invariantCheckPeriod = 8'000;
        const RunResult r = runMulticore(*sys, streams, opts);
        EXPECT_EQ(r.valueErrors, 0u) << r.firstError;
        EXPECT_EQ(r.invariantErrors, 0u) << r.firstError;
    }
}

TEST(D2mEightNodes, BaselineAlsoScales)
{
    SystemParams p;
    p.numNodes = 8;
    auto sys = makeSystem(ConfigKind::Base2L, p);
    WorkloadParams wp;
    wp.instructionsPerCore = 6'000;
    wp.sharedFootprint = 64 * 1024;
    wp.sharedFraction = 0.3;
    wp.seed = 41;
    std::vector<std::unique_ptr<AccessStream>> streams;
    for (unsigned c = 0; c < 8; ++c)
        streams.push_back(std::make_unique<SyntheticStream>(wp, c, 64));
    const RunResult r = runMulticore(*sys, streams);
    EXPECT_EQ(r.valueErrors, 0u) << r.firstError;
}

} // namespace
} // namespace d2m
