/**
 * @file
 * Tests for the synthetic workload generator and the suite presets.
 */

#include <gtest/gtest.h>

#include <map>

#include "workload/suites.hh"

namespace d2m
{
namespace
{

std::vector<MemAccess>
drain(SyntheticStream &s)
{
    std::vector<MemAccess> out;
    MemAccess a;
    while (s.next(a))
        out.push_back(a);
    return out;
}

TEST(Synthetic, InstructionBudgetExact)
{
    WorkloadParams p;
    p.instructionsPerCore = 5'000;
    SyntheticStream s(p, 0, 64);
    std::uint64_t insts = 0;
    for (const auto &a : drain(s))
        insts += a.instCount;
    EXPECT_EQ(insts, 5'000u);
}

TEST(Synthetic, DeterministicPerSeedAndCore)
{
    WorkloadParams p;
    p.instructionsPerCore = 2'000;
    p.sharedFootprint = 64 * 1024;
    p.sharedFraction = 0.2;
    SyntheticStream a(p, 1, 64), b(p, 1, 64);
    MemAccess x, y;
    while (true) {
        const bool ha = a.next(x), hb = b.next(y);
        ASSERT_EQ(ha, hb);
        if (!ha)
            break;
        EXPECT_EQ(x.vaddr, y.vaddr);
        EXPECT_EQ(x.type, y.type);
        EXPECT_EQ(x.storeValue, y.storeValue);
    }
    // A different core produces a different stream.
    SyntheticStream c(p, 2, 64);
    unsigned diffs = 0;
    SyntheticStream a2(p, 1, 64);
    for (int i = 0; i < 100; ++i) {
        a2.next(x);
        c.next(y);
        diffs += x.vaddr != y.vaddr;
    }
    EXPECT_GT(diffs, 0u);
}

TEST(Synthetic, AddressRegionsRespected)
{
    WorkloadParams p;
    p.instructionsPerCore = 5'000;
    p.sharedFootprint = 128 * 1024;
    p.sharedFraction = 0.3;
    SyntheticStream s(p, 2, 64);
    for (const auto &a : drain(s)) {
        if (a.type == AccessType::IFETCH) {
            EXPECT_GE(a.vaddr, 0x1000'0000u);
            EXPECT_LT(a.vaddr, 0x1000'0000u + p.codeFootprint);
        } else {
            EXPECT_GE(a.vaddr, 0x2000'0000u);  // heap/shared/stack
        }
    }
}

TEST(Synthetic, StoreFractionRoughlyHonored)
{
    WorkloadParams p;
    p.instructionsPerCore = 50'000;
    p.storeFraction = 0.4;
    SyntheticStream s(p, 0, 64);
    unsigned loads = 0, stores = 0;
    for (const auto &a : drain(s)) {
        loads += a.type == AccessType::LOAD;
        stores += a.type == AccessType::STORE;
    }
    EXPECT_NEAR(static_cast<double>(stores) / (loads + stores), 0.4,
                0.05);
}

TEST(Synthetic, StoreValuesUniquePerCore)
{
    WorkloadParams p;
    p.instructionsPerCore = 10'000;
    p.storeFraction = 0.5;
    SyntheticStream s0(p, 0, 64), s1(p, 1, 64);
    std::set<std::uint64_t> values;
    for (auto *s : {&s0, &s1}) {
        MemAccess a;
        while (s->next(a)) {
            if (a.type == AccessType::STORE) {
                EXPECT_TRUE(values.insert(a.storeValue).second);
            }
        }
    }
}

TEST(Synthetic, DisjointAsidsSeparateDataSharedCode)
{
    WorkloadParams p;
    p.instructionsPerCore = 1'000;
    p.disjointAsids = true;
    p.sharedCode = true;
    SyntheticStream s(p, 3, 64);
    for (const auto &a : drain(s)) {
        if (a.type == AccessType::IFETCH)
            EXPECT_EQ(a.asid, 0u);  // shared text
        else
            EXPECT_EQ(a.asid, 4u);  // core 3 -> asid 4
    }
}

TEST(Synthetic, StridedPatternStridesPhysically)
{
    WorkloadParams p;
    p.instructionsPerCore = 20'000;
    p.stridedPattern = true;
    p.strideBytes = 64 * 1024;
    p.streamFraction = 1.0;  // all private refs stride
    p.stackFraction = 0.0;
    p.privateFootprint = 4 << 20;
    SyntheticStream s(p, 0, 64);
    std::map<Addr, unsigned> hits;
    for (const auto &a : drain(s)) {
        if (a.type != AccessType::IFETCH) {
            EXPECT_EQ(a.vaddr % p.strideBytes, 0u);
        }
    }
}

TEST(Suites, PaperBenchmarkListsPresent)
{
    const auto all = allSuites();
    auto has = [&](const char *name) {
        for (const auto &wl : all) {
            if (wl.name == name)
                return true;
        }
        return false;
    };
    // The benchmarks the paper's evaluation calls out by name.
    EXPECT_TRUE(has("canneal"));
    EXPECT_TRUE(has("streamcluster"));
    EXPECT_TRUE(has("lu"));
    EXPECT_TRUE(has("cnn"));
    EXPECT_TRUE(has("tpcc"));
    EXPECT_TRUE(has("mix1"));
    EXPECT_GE(all.size(), 30u);
}

TEST(Suites, FiveSuitesInPaperOrder)
{
    const auto names = suiteNames();
    ASSERT_EQ(names.size(), 5u);
    EXPECT_EQ(names[0], "parallel");
    EXPECT_EQ(names[4], "database");
}

TEST(Suites, CharacteristicsMatchTableIVOrdering)
{
    // Database has the largest instruction footprint; server mixes are
    // disjoint; lu strides.
    const auto all = allSuites();
    std::uint64_t db_code = 0, mobile_code = 0, parallel_code = 0;
    for (const auto &wl : all) {
        if (wl.suite == "database")
            db_code = std::max(db_code, wl.params.codeFootprint);
        if (wl.suite == "mobile")
            mobile_code = std::max(mobile_code, wl.params.codeFootprint);
        if (wl.suite == "parallel")
            parallel_code =
                std::max(parallel_code, wl.params.codeFootprint);
        if (wl.suite == "server") {
            EXPECT_TRUE(wl.params.disjointAsids);
        }
        if (wl.name == "lu") {
            EXPECT_TRUE(wl.params.stridedPattern);
        }
    }
    EXPECT_GT(db_code, mobile_code);
    EXPECT_GT(mobile_code, parallel_code);
}

TEST(Suites, MakeStreamsHonorsOverride)
{
    const auto wl = databaseSuite().front();
    auto streams = makeStreams(wl, 4, 64, /*insts_override=*/1'000);
    ASSERT_EQ(streams.size(), 4u);
    MemAccess a;
    std::uint64_t insts = 0;
    while (streams[0]->next(a))
        insts += a.instCount;
    EXPECT_EQ(insts, 1'000u);
}

} // namespace
} // namespace d2m
