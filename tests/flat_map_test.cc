/**
 * @file
 * Tests for the open-addressing flat hash map: backward-shift
 * deletion (churn at fixed capacity, a probe run that wraps past the
 * last slot) and a randomized property test against
 * std::unordered_map.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/flat_map.hh"
#include "common/rng.hh"

namespace d2m
{
namespace
{

TEST(FlatMap, InsertFindErase)
{
    FlatMap<std::uint64_t, int> m;
    EXPECT_TRUE(m.empty());
    EXPECT_FALSE(m.contains(1));
    EXPECT_TRUE(m.find(1) == m.end());

    auto [it, fresh] = m.emplace(1, 10);
    EXPECT_TRUE(fresh);
    EXPECT_EQ(it->second, 10);
    EXPECT_EQ(m.size(), 1u);

    // Duplicate insert keeps the original value.
    auto [it2, fresh2] = m.emplace(1, 99);
    EXPECT_FALSE(fresh2);
    EXPECT_EQ(it2->second, 10);
    EXPECT_EQ(m.size(), 1u);

    m[2] = 20;
    m[2] = 21;  // overwrite through operator[]
    EXPECT_EQ(m.find(2)->second, 21);
    EXPECT_EQ(m.size(), 2u);

    EXPECT_TRUE(m.erase(1));
    EXPECT_FALSE(m.erase(1));  // already gone
    EXPECT_FALSE(m.contains(1));
    EXPECT_EQ(m.size(), 1u);

    // A key can come back after erase.
    m[1] = 11;
    EXPECT_EQ(m.find(1)->second, 11);
    EXPECT_EQ(m.size(), 2u);
}

TEST(FlatMap, OperatorIndexDefaultConstructs)
{
    FlatMap<int, std::uint64_t> m;
    EXPECT_EQ(m[5], 0u);
    m[5] += 7;
    EXPECT_EQ(m[5], 7u);
}

TEST(FlatMap, GrowsPastInitialCapacityAndKeepsEntries)
{
    FlatMap<std::uint64_t, std::uint64_t> m;
    const std::uint64_t n = 10'000;
    for (std::uint64_t i = 0; i < n; ++i)
        m[i * 0x9e3779b9ull] = i;
    EXPECT_EQ(m.size(), n);
    EXPECT_GE(m.capacity(), n);
    for (std::uint64_t i = 0; i < n; ++i) {
        auto it = m.find(i * 0x9e3779b9ull);
        ASSERT_TRUE(it != m.end()) << i;
        EXPECT_EQ(it->second, i);
    }
}

TEST(FlatMap, ReserveAvoidsRehash)
{
    FlatMap<int, int> m;
    m.reserve(1000);
    const std::size_t cap = m.capacity();
    for (int i = 0; i < 1000; ++i)
        m[i] = i;
    EXPECT_EQ(m.capacity(), cap);
}

TEST(FlatMap, SlidingWindowChurnKeepsCapacityAndSurvivors)
{
    // Insert/erase a sliding window of keys that loads the minimum
    // table to 10/16 at each insert: the capacity must never move,
    // and after every erase each survivor must still be found from
    // its home slot.
    constexpr std::uint64_t kWindow = 9;
    FlatMap<std::uint64_t, std::uint64_t> m;
    for (std::uint64_t i = 0; i < kWindow; ++i)
        m[i] = i;
    const std::size_t cap = m.capacity();
    for (std::uint64_t i = kWindow; i < 100'000; ++i) {
        m[i] = i;
        ASSERT_TRUE(m.erase(i - kWindow)) << i;
        ASSERT_FALSE(m.contains(i - kWindow)) << i;
        ASSERT_EQ(m.capacity(), cap) << i;
        for (std::uint64_t k = i + 1 - kWindow; k <= i; ++k) {
            auto it = m.find(k);
            ASSERT_TRUE(it != m.end()) << "lost " << k << " at " << i;
            ASSERT_EQ(it->second, k);
        }
    }
    EXPECT_EQ(m.size(), kWindow);
}

/** Hashes a key to its bits above 8, so a test can place each key's
 * home slot (the low bits of the result) by hand. */
struct HomeSlotHash
{
    std::uint64_t
    operator()(std::uint64_t k) const
    {
        return k >> 8;
    }
};

TEST(FlatMap, EraseShiftsAProbeRunThatWrapsPastTheLastSlot)
{
    // In the 16-slot minimum table: four keys homed at slot 15 fill
    // slots 15, 0, 1 and 2; b (home 0) and c (home 1) follow at 3 and
    // 4; d sits in its home slot 5, so no erase may move it. Iteration
    // runs in slot order, which shows where each key ended up.
    const std::uint64_t a0 = 0xf00, a1 = 0xf01, a2 = 0xf02, a3 = 0xf03;
    const std::uint64_t b = 0x000, c = 0x100, d = 0x500;
    const std::vector<std::uint64_t> all = {a0, a1, a2, a3, b, c, d};
    struct Case
    {
        const char *where;
        std::uint64_t victim;
        std::vector<std::uint64_t> order;  //!< Survivors, slot order.
    };
    const Case cases[] = {
        {"head", a0, {a2, a3, b, c, d, a1}},
        {"middle", a2, {a1, a3, b, c, d, a0}},
        {"tail", c, {a1, a2, a3, b, d, a0}},
    };
    for (const Case &tc : cases) {
        SCOPED_TRACE(tc.where);
        FlatMap<std::uint64_t, std::uint64_t, HomeSlotHash> m;
        for (std::uint64_t k : all)
            m[k] = k + 1;
        ASSERT_EQ(m.capacity(), 16u);
        ASSERT_TRUE(m.erase(tc.victim));
        EXPECT_FALSE(m.contains(tc.victim));
        EXPECT_EQ(m.size(), all.size() - 1);
        for (std::uint64_t k : all) {
            if (k == tc.victim)
                continue;
            auto it = m.find(k);
            ASSERT_TRUE(it != m.end()) << std::hex << k;
            EXPECT_EQ(it->second, k + 1);
        }
        std::vector<std::uint64_t> order;
        for (const auto &kv : m)
            order.push_back(kv.first);
        EXPECT_EQ(order, tc.order);
        // The freed slot is reusable and the run stays searchable.
        m[tc.victim] = 0;
        for (std::uint64_t k : all)
            EXPECT_TRUE(m.contains(k)) << std::hex << k;
    }
}

TEST(FlatMap, IterationVisitsEveryLiveEntryOnce)
{
    FlatMap<int, int> m;
    for (int i = 0; i < 100; ++i)
        m[i] = i * 3;
    for (int i = 0; i < 100; i += 2)
        m.erase(i);
    std::unordered_set<int> seen;
    for (const auto &[k, v] : m) {
        EXPECT_EQ(v, k * 3);
        EXPECT_TRUE(seen.insert(k).second) << "visited twice: " << k;
    }
    EXPECT_EQ(seen.size(), 50u);
    for (int i = 1; i < 100; i += 2) {
        EXPECT_TRUE(seen.count(i)) << i;
    }
}

TEST(FlatMap, ClearEmptiesButKeepsCapacity)
{
    FlatMap<int, int> m;
    for (int i = 0; i < 100; ++i)
        m[i] = i;
    const std::size_t cap = m.capacity();
    m.clear();
    EXPECT_EQ(m.size(), 0u);
    EXPECT_EQ(m.capacity(), cap);
    EXPECT_FALSE(m.contains(5));
    EXPECT_TRUE(m.begin() == m.end());
    m[3] = 4;
    EXPECT_EQ(m.find(3)->second, 4);
}

TEST(FlatMap, AdversarialKeysCollideIntoOneChain)
{
    // Keys differing only above bit 40 — any weak mask-only hash
    // would pile them into one slot; correctness must survive the
    // resulting long probe chains either way.
    FlatMap<std::uint64_t, std::uint64_t> m;
    for (std::uint64_t i = 0; i < 512; ++i)
        m[i << 40] = i;
    EXPECT_EQ(m.size(), 512u);
    for (std::uint64_t i = 0; i < 512; ++i)
        EXPECT_EQ(m.find(i << 40)->second, i);
    for (std::uint64_t i = 0; i < 512; i += 2)
        EXPECT_TRUE(m.erase(i << 40));
    for (std::uint64_t i = 1; i < 512; i += 2)
        EXPECT_EQ(m.find(i << 40)->second, i);
}

TEST(FlatMapProperty, AgreesWithUnorderedMapUnderRandomOps)
{
    // Random insert / overwrite / erase / lookup stream, checked
    // against std::unordered_map after every operation. Phases of
    // 10,000 steps alternate: even phases pick each op a quarter of
    // the time, odd phases erase three times in four, which drains
    // the map and shifts long probe runs back.
    Rng rng(0xf1a7a201ull);
    FlatMap<std::uint32_t, std::uint64_t> flat;
    std::unordered_map<std::uint32_t, std::uint64_t> ref;

    for (int step = 0; step < 100'000; ++step) {
        const std::uint32_t key =
            static_cast<std::uint32_t>(rng.next() % 512);
        const bool erase_phase = (step / 10'000) % 2 == 1;
        const std::uint64_t draw = rng.next() % 8;
        const std::uint64_t op =
            erase_phase ? (draw < 6 ? 2 : draw == 6 ? 0 : 3) : draw % 4;
        switch (op) {
          case 0:  // insert-if-absent
            EXPECT_EQ(flat.emplace(key, step).second,
                      ref.emplace(key, step).second);
            break;
          case 1:  // overwrite
            flat[key] = step;
            ref[key] = step;
            break;
          case 2:  // erase
            EXPECT_EQ(flat.erase(key), ref.erase(key) > 0);
            break;
          default: {  // lookup
            auto fit = flat.find(key);
            auto rit = ref.find(key);
            ASSERT_EQ(fit != flat.end(), rit != ref.end());
            if (rit != ref.end()) {
                EXPECT_EQ(fit->second, rit->second);
            }
            break;
          }
        }
        ASSERT_EQ(flat.size(), ref.size());
        if (step % 10'000 == 9'999) {
            // Every entry is still found at each phase's end.
            for (const auto &[k, v] : ref) {
                auto fit = flat.find(k);
                ASSERT_TRUE(fit != flat.end()) << k;
                EXPECT_EQ(fit->second, v);
            }
        }
    }
    // Full-content comparison at the end.
    std::size_t visited = 0;
    for (const auto &[k, v] : flat) {
        auto it = ref.find(k);
        ASSERT_NE(it, ref.end()) << k;
        EXPECT_EQ(v, it->second);
        ++visited;
    }
    EXPECT_EQ(visited, ref.size());
}

} // namespace
} // namespace d2m
