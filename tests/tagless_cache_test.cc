/**
 * @file
 * Tests for the tag-less data arrays: direct (set, way) addressing,
 * victim choice, MRU detection for the replication heuristic, and the
 * LLC-only scramble behavior behind dynamic indexing (Section IV-D).
 */

#include <gtest/gtest.h>

#include "d2m/tagless_cache.hh"

namespace d2m
{
namespace
{

TEST(TaglessCache, DirectAccessAfterFill)
{
    SimObject parent("sys");
    TaglessCache cache("l1", &parent, 64, 8, 6);  // 8 sets
    const Addr line = 0x123;
    const std::uint32_t set = cache.setFor(line);
    const std::uint32_t way = cache.victimWay(set);
    cache.install(set, way, {.valid = true, .lineAddr = line, .value = 77});
    EXPECT_EQ(cache.at(set, way).value, 77u);
}

TEST(TaglessCache, VictimPrefersInvalid)
{
    SimObject parent("sys");
    TaglessCache cache("l1", &parent, 16, 4, 6);
    for (unsigned w = 0; w < 3; ++w) {
        TaglessLine &slot = cache.at(0, w);
        slot.valid = true;
        slot.lineAddr = w;
        cache.touch(0, w);
    }
    EXPECT_EQ(cache.victimWay(0), 3u);
}

TEST(TaglessCache, VictimLruWhenFull)
{
    SimObject parent("sys");
    TaglessCache cache("l1", &parent, 16, 4, 6);
    for (unsigned w = 0; w < 4; ++w) {
        cache.at(0, w).valid = true;
        cache.touch(0, w);
    }
    cache.touch(0, 0);  // way 0 newest
    EXPECT_EQ(cache.victimWay(0), 1u);
}

TEST(TaglessCache, MruDetection)
{
    SimObject parent("sys");
    TaglessCache cache("llc", &parent, 16, 4, 6);
    for (unsigned w = 0; w < 4; ++w) {
        cache.at(0, w).valid = true;
        cache.touch(0, w);
    }
    cache.touch(0, 2);
    EXPECT_TRUE(cache.isMru(0, 2));
    EXPECT_FALSE(cache.isMru(0, 0));
}

TEST(TaglessCache, ScrambleHonoredOnlyWhenEnabled)
{
    SimObject parent("sys");
    TaglessCache plain("l1", &parent, 64, 8, 6, /*scrambled=*/false);
    TaglessCache scrambled("llc", &parent, 64, 8, 6, /*scrambled=*/true);
    const Addr line = 0x40;
    EXPECT_EQ(plain.setFor(line, 0xdead), plain.setFor(line, 0));
    // For the scrambled array different region scrambles generally
    // select different sets.
    bool moved = false;
    for (std::uint32_t s = 1; s < 8 && !moved; ++s)
        moved = scrambled.setFor(line, s) != scrambled.setFor(line, 0);
    EXPECT_TRUE(moved);
}

TEST(TaglessCache, ScrambleDispersesPowerOfTwoStrides)
{
    // The dynamic-indexing motivation: lines a whole set-count apart
    // alias to one set without scrambling.
    SimObject parent("sys");
    TaglessCache llc("llc", &parent, 64 * 32, 32, 6, /*scrambled=*/true);
    const std::uint32_t sets = llc.numSets();
    std::set<std::uint32_t> plain_sets, scrambled_sets;
    for (unsigned i = 0; i < 64; ++i) {
        const Addr line = Addr(i) * sets;  // stride = sets lines
        plain_sets.insert(llc.setFor(line, 0));
        // Each region gets its own random scramble value.
        scrambled_sets.insert(llc.setFor(line, 0x9e37 * (i / 16 + 1)));
    }
    EXPECT_EQ(plain_sets.size(), 1u);       // pathological aliasing
    EXPECT_GT(scrambled_sets.size(), 2u);   // dispersed
}

TEST(TaglessCache, InvalidateResetsEverything)
{
    TaglessLine line;
    line.valid = true;
    line.lineAddr = 5;
    line.dirty = true;
    line.master = true;
    line.exclusive = true;
    line.ownerNode = 2;
    line.rp = LocationInfo::inLlc(1, 3);
    line.invalidate();
    EXPECT_FALSE(line.valid);
    EXPECT_FALSE(line.dirty);
    EXPECT_FALSE(line.master);
    EXPECT_FALSE(line.exclusive);
    EXPECT_EQ(line.ownerNode, invalidNode);
    EXPECT_TRUE(line.rp.isMem());
}

TEST(TaglessCache, ForEachValidCounts)
{
    SimObject parent("sys");
    TaglessCache cache("l1", &parent, 16, 4, 6);
    cache.at(0, 1).valid = true;
    cache.at(2, 3).valid = true;
    unsigned n = 0;
    cache.forEachValid([&](std::uint32_t, std::uint32_t,
                           const TaglessLine &) { ++n; });
    EXPECT_EQ(n, 2u);
}

} // namespace
} // namespace d2m
