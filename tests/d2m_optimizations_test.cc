/**
 * @file
 * Directed tests for the data-oriented optimizations of Section IV:
 * NS-LLC placement, cooperative-caching replication, dynamic indexing,
 * and MD2 pruning — plus the placement and replication heuristics in
 * isolation.
 */

#include <gtest/gtest.h>

#include "d2m/d2m_system.hh"
#include "d2m/policies.hh"
#include "harness/configs.hh"
#include "test_util.hh"

namespace d2m
{
namespace
{

using test::ifetch;
using test::load;
using test::run;
using test::store;

constexpr Addr base = 0x4000'0000;
constexpr Addr l1SetStride = 4096;

std::unique_ptr<D2mSystem>
make(ConfigKind kind, SystemParams params = {})
{
    return std::make_unique<D2mSystem>("d2m", paramsFor(kind, params));
}

TEST(NsPlacement, LocalAllocationWhenUnpressured)
{
    PressurePlacementPolicy p(4, 0.2, 1);
    // No pressure anywhere: always allocate locally.
    for (NodeId n = 0; n < 4; ++n)
        EXPECT_EQ(p.chooseSlice(n), n);
}

TEST(NsPlacement, SpillsUnderPressure)
{
    PressurePlacementPolicy p(4, 0.2, 1);
    for (int i = 0; i < 100; ++i)
        p.recordReplacement(0);  // slice 0 is hot
    p.exchangeEpoch();
    unsigned remote = 0;
    for (int i = 0; i < 1000; ++i) {
        const auto s = p.chooseSlice(0);
        if (s != 0)
            ++remote;
        EXPECT_NE(s, 0u * 0u + 99u);  // sanity
    }
    // The paper's 80/20 split under high local pressure.
    EXPECT_NEAR(remote / 1000.0, 0.2, 0.06);
    // Unpressured nodes stay local.
    EXPECT_EQ(p.chooseSlice(1), 1u);
}

TEST(Replication, PaperHeuristic)
{
    // Instructions are always replicated.
    EXPECT_TRUE(shouldReplicate(true, false, false));
    EXPECT_TRUE(shouldReplicate(true, true, true));
    // Data only when read from the MRU position of a remote slice.
    EXPECT_TRUE(shouldReplicate(false, true, true));
    EXPECT_FALSE(shouldReplicate(false, true, false));
    EXPECT_FALSE(shouldReplicate(false, false, true));
}

TEST(Replication, DisabledOnD2mNs)
{
    // The shared-code scenario that replicates on D2M-NS-R
    // (NsLlcR.InstructionsReplicateIntoLocalSlice) makes no replica
    // on D2M-NS.
    auto sys = make(ConfigKind::D2mNs);
    run(*sys, 0, ifetch(base));
    run(*sys, 1, ifetch(base));
    for (unsigned i = 1; i < 10; ++i)
        run(*sys, 1, ifetch(base + i * l1SetStride));
    run(*sys, 1, ifetch(base));
    EXPECT_EQ(sys->events().replicationsInst.value(), 0u);
    EXPECT_EQ(sys->events().replicationsData.value(), 0u);
    EXPECT_TRUE(test::invariantReport(*sys).empty());
}

TEST(Scrambler, DisabledYieldsZero)
{
    IndexScrambler off(false, 1);
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(off.next(), 0u);
    IndexScrambler on(true, 1);
    bool nonzero = false;
    for (int i = 0; i < 10; ++i)
        nonzero |= on.next() != 0;
    EXPECT_TRUE(nonzero);
}

TEST(NsLlc, LocalSliceHitsAvoidTheNoc)
{
    auto sys = make(ConfigKind::D2mNs);
    // Private data spills into the local slice; re-reading it is an
    // LLC_NEAR hit with no interconnect messages.
    for (unsigned i = 0; i < 9; ++i)
        run(*sys, 0, store(base + i * l1SetStride, i));
    const auto msgs_before = sys->noc().totalMessages.value();
    const AccessResult res = run(*sys, 0, load(base));
    if (res.l1Miss) {
        EXPECT_EQ(res.level, ServiceLevel::LLC_NEAR);
        EXPECT_EQ(sys->noc().totalMessages.value(), msgs_before);
    }
    EXPECT_GT(sys->events().llcAccessesLocal.value(), 0u);
}

TEST(NsLlc, RemoteSliceAccessIsDirect)
{
    auto sys = make(ConfigKind::D2mNs);
    // Node 0 spills a shared line into (most likely) its own slice;
    // node 1's read goes directly to that slice, not via a directory.
    run(*sys, 1, load(base));            // make region shared early
    run(*sys, 0, store(base, 5));
    for (unsigned i = 1; i < 10; ++i)
        run(*sys, 0, store(base + i * l1SetStride, i));
    const auto md3_before = sys->events().md3Lookups.value();
    EXPECT_EQ(run(*sys, 1, load(base)).loadValue, 5u);
    EXPECT_EQ(sys->events().md3Lookups.value(), md3_before);
    EXPECT_TRUE(test::invariantReport(*sys).empty());
}

TEST(NsLlcR, InstructionsReplicateIntoLocalSlice)
{
    auto sys = make(ConfigKind::D2mNsR);
    // Two nodes share code: node 1's fetches replicate into its own
    // slice so later misses are near-side hits (Section IV-C: "97% of
    // the L1-I misses" for Database).
    run(*sys, 0, ifetch(base));
    run(*sys, 1, ifetch(base));  // shared now; replica made
    EXPECT_GT(sys->events().replicationsInst.value(), 0u);
    // Evict node 1's L1-I copy with conflicting fetches.
    for (unsigned i = 1; i < 10; ++i)
        run(*sys, 1, ifetch(base + i * l1SetStride));
    const AccessResult res = run(*sys, 1, ifetch(base));
    if (res.l1Miss) {
        EXPECT_EQ(res.level, ServiceLevel::LLC_NEAR);
    }
    EXPECT_TRUE(test::invariantReport(*sys).empty());
}

TEST(NsLlcR, NoDataReplicationWithoutRemoteMru)
{
    auto sys = make(ConfigKind::D2mNsR);
    // Purely private data never replicates (placement already makes
    // it local).
    for (unsigned i = 0; i < 20; ++i)
        run(*sys, 0, load(base + i * 64));
    EXPECT_EQ(sys->events().replicationsData.value(), 0u);
}

TEST(Pruning, InvalidationPrunesIdleMd2Entries)
{
    SystemParams p;
    p.md2Pruning = true;
    auto sys = make(ConfigKind::D2mFs, p);
    // Node 1 touches one line of the region, then its copy is
    // invalidated; the pruning heuristic drops its idle MD2 entry and
    // the region reverts to private (Section IV-A).
    run(*sys, 0, store(base, 1));
    run(*sys, 1, load(base));
    // Push the region out of node 1's MD1 so the TP condition holds.
    for (unsigned r = 1; r < 80; ++r)
        run(*sys, 1, load(base + 0x100'0000 + Addr(r) * 1024));
    const auto prunes_before = sys->events().md2Prunes.value();
    run(*sys, 0, store(base, 2));  // case C invalidates node 1
    if (sys->events().md2Prunes.value() > prunes_before) {
        EXPECT_EQ(sys->regionClass(test::pregionOf(*sys, base)),
                  RegionClass::Private);
        EXPECT_GT(sys->events().sharedToPrivate.value(), 0u);
    }
    EXPECT_TRUE(test::invariantReport(*sys).empty());
}

TEST(Pruning, DisabledKeepsEntries)
{
    SystemParams p;
    p.md2Pruning = false;
    auto sys = make(ConfigKind::D2mFs, p);
    run(*sys, 0, store(base, 1));
    run(*sys, 1, load(base));
    for (unsigned r = 1; r < 80; ++r)
        run(*sys, 1, load(base + 0x100'0000 + Addr(r) * 1024));
    run(*sys, 0, store(base, 2));
    EXPECT_EQ(sys->events().md2Prunes.value(), 0u);
}

TEST(DynamicIndexing, RemovesPowerOfTwoConflicts)
{
    // Lines separated by (LLC sets x line size) alias to one LLC set
    // without scrambling. With per-region scrambled indexing the same
    // lines spread across sets, so they all survive in the LLC.
    // Build the systems directly: the config presets pin the toggle.
    SystemParams plain_p;
    plain_p.dynamicIndexing = false;
    D2mSystem plain("plain", plain_p);
    SystemParams scr_p;
    scr_p.dynamicIndexing = true;
    D2mSystem scrambled("scrambled", scr_p);

    // Far-side LLC: 4 MiB 32-way = 2048 sets; stride = 128 KiB.
    const Addr stride = 2048 * 64;
    constexpr unsigned lines = 48;  // > 32 ways: thrashes one set
    for (D2mSystem *sys : {&plain, &scrambled}) {
        for (unsigned i = 0; i < lines; ++i)
            run(*sys, 0, store(base + Addr(i) * stride, i));
    }
    const auto plain_dram = plain.memory().reads.value();
    const auto scr_dram = scrambled.memory().reads.value();
    for (unsigned i = 0; i < lines; ++i) {
        EXPECT_EQ(run(plain, 0, load(base + Addr(i) * stride)).loadValue,
                  i);
        EXPECT_EQ(
            run(scrambled, 0, load(base + Addr(i) * stride)).loadValue,
            i);
    }
    const auto plain_refetch = plain.memory().reads.value() - plain_dram;
    const auto scr_refetch =
        scrambled.memory().reads.value() - scr_dram;
    // Scrambled indexing keeps the strided lines cached; conventional
    // indexing thrashes the aliased set and refetches from DRAM.
    EXPECT_LT(scr_refetch, plain_refetch);
    EXPECT_EQ(scr_refetch, 0u);
    EXPECT_GT(plain_refetch, lines / 4);
}

TEST(MdScaling, LargerMd1ImprovesCoverage)
{
    SystemParams small;
    small.md1Entries = 16;
    auto sys_small = make(ConfigKind::D2mFs, small);
    SystemParams big;
    big.md1Entries = 256;
    auto sys_big = make(ConfigKind::D2mFs, big);
    // Touch 32 regions round-robin twice: the small MD1 thrashes.
    for (auto *sys : {sys_small.get(), sys_big.get()}) {
        for (int round = 0; round < 3; ++round)
            for (unsigned r = 0; r < 32; ++r)
                run(*sys, 0, load(base + Addr(r) * 1024));
    }
    const auto small_md1 = sys_small->events().md1Hits.value();
    const auto big_md1 = sys_big->events().md1Hits.value();
    EXPECT_GT(big_md1, small_md1);
}

} // namespace
} // namespace d2m
