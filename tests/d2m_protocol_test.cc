/**
 * @file
 * Directed tests of the D2M coherence protocol against the paper's
 * Appendix cases (A-F, D1-D4) and Table II region classification.
 *
 * Each test drives explicit accesses through a D2mSystem and checks
 * the event counters, classification, values, and invariants.
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

constexpr Addr regionA = 0x4000'0000;  // distinct 1 KiB regions
constexpr Addr regionB = 0x4000'0400;

TEST(D2mProtocol, FirstTouchIsCaseD4UncachedToPrivate)
{
    auto sys = makeFs();
    run(*sys, 0, load(regionA));
    EXPECT_EQ(sys->events().d4.value(), 1u);
    EXPECT_EQ(sys->regionClass(pregionOf(*sys, regionA)),
              RegionClass::Private);
    EXPECT_TRUE(test::invariantReport(*sys).empty());
}

TEST(D2mProtocol, SecondLineOfRegionIsCaseA)
{
    auto sys = makeFs();
    run(*sys, 0, load(regionA));
    run(*sys, 0, load(regionA + 64));  // next line, same region
    EXPECT_EQ(sys->events().aMd1.value(), 1u);
    // Both lines were fetched from memory (the case-D access too).
    EXPECT_EQ(sys->events().aMasterMem.value(), 2u);
    EXPECT_EQ(sys->events().d4.value(), 1u);  // no second MD3 trip
}

TEST(D2mProtocol, L1HitAfterFill)
{
    auto sys = makeFs();
    run(*sys, 0, load(regionA));
    const auto misses_before = sys->hierStats().l1dMisses.value();
    const AccessResult res = run(*sys, 0, load(regionA));
    EXPECT_FALSE(res.l1Miss);
    EXPECT_EQ(res.level, ServiceLevel::L1);
    EXPECT_EQ(sys->hierStats().l1dMisses.value(), misses_before);
}

TEST(D2mProtocol, PrivateWriteIsCaseBWithNoDirectoryWork)
{
    auto sys = makeFs();
    run(*sys, 0, load(regionA));
    const auto md3_before = sys->events().md3Lookups.value();
    const auto c_before = sys->events().c.value();
    run(*sys, 0, store(regionA + 64, 99));  // write miss, private
    EXPECT_EQ(sys->events().b.value(), 1u);
    EXPECT_EQ(sys->events().c.value(), c_before);
    EXPECT_EQ(sys->events().md3Lookups.value(), md3_before);
    EXPECT_EQ(run(*sys, 0, load(regionA + 64)).loadValue, 99u);
}

TEST(D2mProtocol, PrivateWriteHitUpgradesSilently)
{
    auto sys = makeFs();
    run(*sys, 0, store(regionA, 7));
    const auto msgs = sys->noc().totalMessages.value();
    run(*sys, 0, store(regionA, 8));  // hit on own master
    EXPECT_EQ(sys->noc().totalMessages.value(), msgs);
    EXPECT_EQ(run(*sys, 0, load(regionA)).loadValue, 8u);
}

TEST(D2mProtocol, SecondNodeTriggersD2PrivateToShared)
{
    auto sys = makeFs();
    run(*sys, 0, store(regionA, 11));
    EXPECT_EQ(sys->regionClass(pregionOf(*sys, regionA)),
              RegionClass::Private);
    const AccessResult res = run(*sys, 1, load(regionA));
    EXPECT_EQ(sys->events().d2.value(), 1u);
    EXPECT_EQ(sys->events().privateToShared.value(), 1u);
    EXPECT_EQ(sys->regionClass(pregionOf(*sys, regionA)),
              RegionClass::Shared);
    // Node 1 read the dirty master directly from node 0.
    EXPECT_EQ(res.loadValue, 11u);
    EXPECT_EQ(res.level, ServiceLevel::REMOTE);
    EXPECT_TRUE(test::invariantReport(*sys).empty());
}

TEST(D2mProtocol, ThirdNodeIsD3SharedToShared)
{
    auto sys = makeFs();
    run(*sys, 0, load(regionA));
    run(*sys, 1, load(regionA));
    run(*sys, 2, load(regionA));
    EXPECT_EQ(sys->events().d2.value(), 1u);
    EXPECT_EQ(sys->events().d3.value(), 1u);
}

TEST(D2mProtocol, SharedWriteIsCaseCAndInvalidates)
{
    auto sys = makeFs();
    run(*sys, 0, store(regionA, 1));
    run(*sys, 1, load(regionA));   // D2: region shared, replica at 1
    run(*sys, 2, load(regionA));   // D3: replica at 2
    const auto inv_before = sys->hierStats().invalidationsReceived.value();
    run(*sys, 1, store(regionA, 2));  // case C
    EXPECT_EQ(sys->events().c.value(), 1u);
    EXPECT_GT(sys->hierStats().invalidationsReceived.value(), inv_before);
    // All nodes observe the new value.
    EXPECT_EQ(run(*sys, 0, load(regionA)).loadValue, 2u);
    EXPECT_EQ(run(*sys, 2, load(regionA)).loadValue, 2u);
    EXPECT_TRUE(test::invariantReport(*sys).empty());
}

TEST(D2mProtocol, ExclusiveMasterWritesSilentlyAfterCaseC)
{
    auto sys = makeFs();
    run(*sys, 0, store(regionA, 1));
    run(*sys, 1, load(regionA));
    run(*sys, 1, store(regionA, 2));  // case C: node 1 becomes M
    const auto c_before = sys->events().c.value();
    run(*sys, 1, store(regionA, 3));  // M state: silent
    EXPECT_EQ(sys->events().c.value(), c_before);
    EXPECT_EQ(run(*sys, 0, load(regionA)).loadValue, 3u);
}

TEST(D2mProtocol, RemoteReadClearsExclusivity)
{
    auto sys = makeFs();
    run(*sys, 0, store(regionA, 1));
    run(*sys, 1, load(regionA));      // region shared; node 0 master
    run(*sys, 1, store(regionA, 2));  // node 1 master, exclusive
    run(*sys, 0, load(regionA));      // replica at node 0: M -> O
    const auto c_before = sys->events().c.value();
    run(*sys, 1, store(regionA, 3));  // must invalidate node 0's copy
    EXPECT_EQ(sys->events().c.value(), c_before + 1);
    EXPECT_EQ(run(*sys, 0, load(regionA)).loadValue, 3u);
}

TEST(D2mProtocol, DirectAccessesSkipMd3)
{
    // Cases A and B are "direct": no MD3/directory interaction — the
    // paper reports ~90% of misses take these paths.
    auto sys = makeFs();
    run(*sys, 0, load(regionA));           // case D4 (MD3)
    run(*sys, 0, load(regionA + 64));      // case A direct
    run(*sys, 0, store(regionA + 128, 1)); // case B direct
    EXPECT_EQ(sys->events().directAccesses.value(), 2u);
    EXPECT_EQ(sys->hierStats().dirIndirections.value(), 1u);
}

TEST(D2mProtocol, FalseInvalidationFromRegionGranularity)
{
    // PB bits are per region: a node that cached only line X of a
    // region still receives an invalidation for line Y (paper
    // Section III-A / Table V).
    auto sys = makeFs();
    run(*sys, 0, load(regionA));        // node 0: line 0 (master)
    run(*sys, 1, load(regionA));        // node 1: replica of line 0
    run(*sys, 2, load(regionA + 64));   // node 2: line 1 only
    const auto false_before = sys->hierStats().falseInvalidations.value();
    run(*sys, 0, store(regionA, 5));    // case C invalidates 1 and 2
    // Node 1 held a real copy; node 2's invalidation was false.
    EXPECT_EQ(sys->hierStats().falseInvalidations.value(),
              false_before + 1);
    EXPECT_GE(sys->hierStats().invalidationsReceived.value(), 2u);
}

TEST(D2mProtocol, InstructionSideUsesMd1I)
{
    auto sys = makeFs();
    run(*sys, 0, ifetch(regionA));
    run(*sys, 0, ifetch(regionA));
    EXPECT_EQ(sys->hierStats().ifetches.value(), 2u);
    EXPECT_EQ(sys->hierStats().l1iMisses.value(), 1u);
    EXPECT_TRUE(test::invariantReport(*sys).empty());
}

TEST(D2mProtocol, SideMigrationFlushesTheOtherL1)
{
    // Footnote 2: a region is active in one MD1 side at a time. A miss
    // in the other side finds it through MD2 and migrates it, first
    // evicting the old side's L1 lines, which the LI cannot name from
    // the new side. The region has MD1 to itself, so every MD2 hit
    // below is a migration.
    for (ConfigKind kind :
         {ConfigKind::D2mFs, ConfigKind::D2mNs, ConfigKind::D2mNsR}) {
        SCOPED_TRACE(configKindName(kind));
        auto sys = std::make_unique<D2mSystem>("d2m", paramsFor(kind, {}));
        run(*sys, 0, store(regionA, 7));     // dirty L1-D master
        run(*sys, 0, ifetch(regionA + 64));  // D -> I: master to the LLC
        EXPECT_EQ(sys->events().md2Hits.value(), 1u);
        EXPECT_EQ(sys->events().e.value(), 1u);
        EXPECT_EQ(run(*sys, 0, ifetch(regionA)).loadValue, 7u);
        EXPECT_EQ(run(*sys, 0, load(regionA)).loadValue, 7u);  // I -> D
        EXPECT_EQ(sys->events().md2Hits.value(), 2u);

        // A second node shares the region and migrates it too.
        EXPECT_EQ(run(*sys, 1, load(regionA)).loadValue, 7u);
        EXPECT_EQ(run(*sys, 1, ifetch(regionA)).loadValue, 7u);
        EXPECT_EQ(run(*sys, 1, load(regionA + 64)).loadValue, 0u);
        EXPECT_EQ(sys->events().md2Hits.value(), 4u);
        EXPECT_TRUE(test::invariantReport(*sys).empty());
    }
}

TEST(D2mProtocol, ServerStylePrivateMissesCounted)
{
    // Disjoint address spaces: every miss is to a private region
    // (Table V: Server = 100%).
    auto sys = makeFs();
    run(*sys, 0, load(regionA, /*asid=*/1));
    run(*sys, 1, load(regionA, /*asid=*/2));
    run(*sys, 0, load(regionA + 64, 1));
    run(*sys, 1, load(regionA + 64, 2));
    const auto &hs = sys->hierStats();
    EXPECT_EQ(hs.missesToPrivate.value(),
              hs.l1iMisses.value() + hs.l1dMisses.value());
}

TEST(D2mProtocol, TwoRegionsIndependent)
{
    auto sys = makeFs();
    run(*sys, 0, store(regionA, 1));
    run(*sys, 1, store(regionB, 2));
    EXPECT_EQ(sys->regionClass(pregionOf(*sys, regionA)),
              RegionClass::Private);
    EXPECT_EQ(sys->regionClass(pregionOf(*sys, regionB)),
              RegionClass::Private);
    EXPECT_EQ(sys->events().d4.value(), 2u);
}

TEST(D2mProtocol, ValuesSurviveClassificationChanges)
{
    auto sys = makeFs();
    run(*sys, 0, store(regionA, 10));
    run(*sys, 0, store(regionA + 64, 20));
    run(*sys, 1, load(regionA));  // private -> shared
    run(*sys, 2, store(regionA, 30));
    EXPECT_EQ(run(*sys, 0, load(regionA)).loadValue, 30u);
    EXPECT_EQ(run(*sys, 1, load(regionA + 64)).loadValue, 20u);
    EXPECT_TRUE(test::invariantReport(*sys).empty());
}

TEST(D2mProtocol, LockAcquisitionsCounted)
{
    auto sys = makeFs();
    run(*sys, 0, load(regionA));       // D4 locks
    run(*sys, 1, load(regionA));       // D2 locks
    run(*sys, 1, store(regionA, 1));   // case C locks
    EXPECT_GE(sys->events().lockAcquisitions.value(), 3u);
}

} // namespace
} // namespace d2m
