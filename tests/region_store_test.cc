/**
 * @file
 * Tests for the generic set-associative region store behind MD1/2/3.
 */

#include <gtest/gtest.h>

#include "d2m/md_entries.hh"
#include "d2m/region_store.hh"

namespace d2m
{
namespace
{

TEST(RegionStore, FindAfterInstall)
{
    SimObject parent("sys");
    RegionStore<Md2Entry> store("md2", &parent, 64, 8);
    Md2Entry &slot = store.victimFor(0x42);
    EXPECT_FALSE(slot.valid);
    store.bind(slot, 0x42);
    store.markInstalled(slot);
    EXPECT_EQ(store.find(0x42), &slot);
    EXPECT_EQ(store.find(0x43), nullptr);
}

TEST(RegionStore, SetConflictEviction)
{
    SimObject parent("sys");
    RegionStore<Md2Entry> store("md2", &parent, 16, 2);  // 8 sets, 2 ways
    // Three keys mapping to set 0: 0, 8, 16.
    for (std::uint64_t key : {0ull, 8ull}) {
        Md2Entry &s = store.victimFor(key);
        EXPECT_FALSE(s.valid);
        store.bind(s, key);
        store.markInstalled(s);
    }
    Md2Entry &victim = store.victimFor(16);
    EXPECT_TRUE(victim.valid);  // set full: a valid entry must go
    EXPECT_TRUE(victim.key == 0 || victim.key == 8);
}

TEST(RegionStore, CostBiasedVictim)
{
    SimObject parent("sys");
    RegionStore<Md2Entry> store("md2", &parent, 4, 4);  // 1 set, 4 ways
    for (std::uint64_t key = 0; key < 4; ++key) {
        Md2Entry &s = store.victimFor(key * 1);
        store.bind(s, key);
        s.scramble = static_cast<std::uint32_t>(key);  // cost proxy
        store.markInstalled(s);
    }
    // All valid; prefer the cheapest (scramble == 0) regardless of age.
    Md2Entry &victim = store.victimFor(99, [](const Md2Entry &e) {
        return e.scramble * 100u;
    });
    EXPECT_EQ(victim.key, 0u);
}

TEST(RegionStoreDeathTest, RejectsSetsWiderThanTheRanking)
{
    // The cost-aware ranking sorts one set on the stack.
    SimObject parent("sys");
    RegionStore<Md2Entry> widest("md2", &parent, maxRankedWays,
                                 maxRankedWays);
    EXPECT_EQ(widest.assoc(), maxRankedWays);
    EXPECT_EXIT(RegionStore<Md2Entry>("md2", &parent, 2 * maxRankedWays,
                                      2 * maxRankedWays),
                testing::ExitedWithCode(1), "associativity 128 exceeds 64");
}

TEST(RegionStore, PositionOfRoundTrip)
{
    SimObject parent("sys");
    RegionStore<Md1Entry> store("md1", &parent, 32, 4);
    Md1Entry &slot = store.victimFor(21);
    store.bind(slot, 21);
    store.markInstalled(slot);
    const auto [set, way] = store.positionOf(slot);
    EXPECT_EQ(&store.at(set, way), &slot);
    EXPECT_EQ(set, store.setOf(21));
}

TEST(RegionStore, ForEachVisitsOnlyValid)
{
    SimObject parent("sys");
    RegionStore<Md3Entry> store("md3", &parent, 32, 4);
    for (std::uint64_t key : {3ull, 7ull, 11ull}) {
        Md3Entry &s = store.victimFor(key);
        store.bind(s, key);
        store.markInstalled(s);
    }
    unsigned count = 0;
    store.forEach([&](const Md3Entry &) { ++count; });
    EXPECT_EQ(count, 3u);
}

TEST(RegionStore, LruRecencyViaFind)
{
    SimObject parent("sys");
    RegionStore<Md2Entry> store("md2", &parent, 2, 2);  // 1 set, 2 ways
    for (std::uint64_t key : {0ull, 1ull}) {
        Md2Entry &s = store.victimFor(key);
        store.bind(s, key);
        store.markInstalled(s);
    }
    store.find(0);  // key 0 becomes MRU
    Md2Entry &victim = store.victimFor(2);
    EXPECT_EQ(victim.key, 1u);
}

} // namespace
} // namespace d2m
