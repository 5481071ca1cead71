/**
 * @file
 * Tests for the page table and TLB models.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>

#include "common/flat_map.hh"
#include "common/rng.hh"
#include "mem/page_table.hh"

namespace d2m
{
namespace
{

TEST(PageTable, TranslationIsStable)
{
    PageTable pt;
    const Addr a = pt.translate(0, 0x1000'1234);
    EXPECT_EQ(pt.translate(0, 0x1000'1234), a);
    EXPECT_EQ(pt.translate(0, 0x1000'1000), a - 0x234);
}

TEST(PageTable, OffsetPreserved)
{
    PageTable pt;
    const Addr a = pt.translate(0, 0x2000'0abc);
    EXPECT_EQ(a & 0xfff, 0xabcu);
}

TEST(PageTable, AsidsAreDisjoint)
{
    PageTable pt;
    const Addr a0 = pt.translate(0, 0x5000'0000);
    const Addr a1 = pt.translate(1, 0x5000'0000);
    EXPECT_NE(a0 >> 12, a1 >> 12);
}

TEST(PageTable, SameAsidShares)
{
    PageTable pt;
    // Two "cores" touching the same (asid, vaddr) get the same frame:
    // this is what makes data shared.
    EXPECT_EQ(pt.translate(0, 0x5000'0040), pt.translate(0, 0x5000'0040));
}

TEST(PageTable, FramesNeverCollide)
{
    PageTable pt;
    std::set<std::uint64_t> frames;
    for (Addr v = 0; v < 256; ++v) {
        const Addr pa = pt.translate(0, v << 12);
        EXPECT_TRUE(frames.insert(pa >> 12).second)
            << "frame reused for page " << v;
    }
}

TEST(PageTable, IdentityPreservesStrideAlignment)
{
    // The page table models huge-page allocation: power-of-two
    // virtual strides stay power-of-two physical strides, which is
    // what makes the Section IV-D conflict pathology reproducible.
    PageTable pt;
    const Addr a0 = pt.translate(0, 0x1000'0000);
    const Addr a1 = pt.translate(0, 0x1002'0000);  // +128 KiB
    EXPECT_EQ(a1 - a0, 0x2'0000u);
}

TEST(Tlb, HitAfterFill)
{
    stats::StatGroup root("root");
    SimObject parent("sys");
    Tlb tlb("tlb", &parent, 4);
    EXPECT_FALSE(tlb.lookup(0, 0x1000));
    EXPECT_TRUE(tlb.lookup(0, 0x1000));
    EXPECT_TRUE(tlb.lookup(0, 0x1abc));  // same page
    EXPECT_EQ(tlb.hits.value(), 2u);
    EXPECT_EQ(tlb.misses.value(), 1u);
}

TEST(Tlb, LruEviction)
{
    SimObject parent("sys");
    Tlb tlb("tlb", &parent, 2);
    tlb.lookup(0, 0x1000);  // miss, fill A
    tlb.lookup(0, 0x2000);  // miss, fill B
    tlb.lookup(0, 0x1000);  // hit A (B becomes LRU)
    tlb.lookup(0, 0x3000);  // miss, evicts B
    EXPECT_TRUE(tlb.lookup(0, 0x1000));
    EXPECT_FALSE(tlb.lookup(0, 0x2000));  // was evicted
}

TEST(Tlb, AsidsDistinguished)
{
    SimObject parent("sys");
    Tlb tlb("tlb", &parent, 8);
    tlb.lookup(0, 0x1000);
    EXPECT_FALSE(tlb.lookup(1, 0x1000));  // different asid: miss
}

TEST(Tlb, CapacityOne)
{
    SimObject parent("sys");
    Tlb tlb("tlb", &parent, 1);
    EXPECT_FALSE(tlb.lookup(0, 0x1000));
    EXPECT_TRUE(tlb.lookup(0, 0x1008));   // same page
    EXPECT_FALSE(tlb.lookup(0, 0x2000));  // evicts 0x1000
    EXPECT_FALSE(tlb.lookup(0, 0x1000));  // evicts 0x2000
    EXPECT_TRUE(tlb.lookup(0, 0x1000));
    EXPECT_FALSE(tlb.lookup(1, 0x1000));  // same page, other asid
    EXPECT_FALSE(tlb.lookup(0, 0x1000));
    EXPECT_EQ(tlb.hits.value(), 2u);
    EXPECT_EQ(tlb.misses.value(), 5u);
}

TEST(Tlb, RepeatedMruHitsKeepLruOrder)
{
    SimObject parent("sys");
    Tlb tlb("tlb", &parent, 3);
    tlb.lookup(0, 0x1000);  // A
    tlb.lookup(0, 0x2000);  // B
    tlb.lookup(0, 0x3000);  // C; recency C B A
    for (int i = 0; i < 5; ++i)
        EXPECT_TRUE(tlb.lookup(0, 0x3000));  // C stays MRU
    EXPECT_FALSE(tlb.lookup(0, 0x4000));     // evicts A; D C B
    EXPECT_TRUE(tlb.lookup(0, 0x2000));      // B D C
    EXPECT_TRUE(tlb.lookup(0, 0x2000));      // B already MRU
    EXPECT_FALSE(tlb.lookup(0, 0x5000));     // evicts C; E B D
    EXPECT_TRUE(tlb.lookup(0, 0x4000));      // D E B
    EXPECT_FALSE(tlb.lookup(0, 0x3000));     // C was evicted; evicts B
    EXPECT_FALSE(tlb.lookup(0, 0x1000));     // A was evicted; evicts E
    EXPECT_EQ(tlb.hits.value(), 8u);
    EXPECT_EQ(tlb.misses.value(), 7u);
}

TEST(Tlb, RefillAfterEvictionCoversWholePage)
{
    SimObject parent("sys");
    Tlb tlb("tlb", &parent, 2);
    tlb.lookup(0, 0x1000);                // A
    tlb.lookup(0, 0x2000);                // B
    tlb.lookup(0, 0x3000);                // C evicts A
    EXPECT_FALSE(tlb.lookup(0, 0x1abc));  // A again, evicts B
    EXPECT_TRUE(tlb.lookup(0, 0x1004));   // another offset in A
    EXPECT_TRUE(tlb.lookup(0, 0x3fff));   // C kept
    EXPECT_FALSE(tlb.lookup(0, 0x2000));  // B was evicted
    EXPECT_EQ(tlb.hits.value(), 2u);
    EXPECT_EQ(tlb.misses.value(), 5u);
}

/**
 * Reference model: the stamp-and-scan LRU. Every lookup bumps a clock
 * and stamps its entry; a miss at capacity scans all entries for the
 * oldest stamp. Slow but obviously exact.
 */
class ScanLruTlb
{
  public:
    explicit ScanLruTlb(unsigned entries) : entries_(entries) {}

    bool
    lookup(AsId asid, Addr vaddr)
    {
        const std::uint64_t tag = (std::uint64_t(asid) << 48) ^ (vaddr >> 12);
        ++clock_;
        auto it = lru_.find(tag);
        if (it != lru_.end()) {
            it->second = clock_;
            ++hits;
            return true;
        }
        ++misses;
        if (lru_.size() >= entries_) {
            auto victim = lru_.begin();
            for (auto jt = lru_.begin(); jt != lru_.end(); ++jt) {
                if (jt->second < victim->second)
                    victim = jt;
            }
            const std::uint64_t victim_tag = victim->first;
            lru_.erase(victim_tag);
        }
        lru_.emplace(tag, clock_);
        return false;
    }

    std::uint64_t hits = 0;
    std::uint64_t misses = 0;

  private:
    unsigned entries_;
    std::uint64_t clock_ = 0;
    FlatMap<std::uint64_t, std::uint64_t> lru_;
};

TEST(Tlb, MatchesScanLruReference)
{
    constexpr unsigned kAsids = 3;
    std::uint64_t seed = 1;
    for (unsigned cap : {1u, 2u, 64u, 1024u}) {
        for (double ws : {0.5, 1.0, 1.5, 2.0, 4.0}) {
            SCOPED_TRACE(testing::Message()
                         << "capacity " << cap << ", working set " << ws
                         << "x, seed " << seed);
            Rng rng(seed++);
            SimObject parent("sys");
            Tlb tlb("tlb", &parent, cap);
            ScanLruTlb ref(cap);
            // Pages p of the working set map to (p % kAsids, p / kAsids),
            // so the same virtual page recurs under every ASID. Half the
            // lookups go to a hot quarter of the set, which keeps the
            // recency order (not just the set) decisive for hits.
            const std::uint64_t pages = std::max<std::uint64_t>(
                1, static_cast<std::uint64_t>(ws * cap));
            const std::uint64_t hot = std::max<std::uint64_t>(1, pages / 4);
            const unsigned n = std::max(4000u, 20 * cap);
            for (unsigned i = 0; i < n; ++i) {
                const std::uint64_t p =
                    rng.below(rng.chance(0.5) ? hot : pages);
                const AsId asid = static_cast<AsId>(p % kAsids);
                const Addr vaddr = ((0x40000 + p / kAsids) << 12) |
                                   rng.below(4096);
                ASSERT_EQ(tlb.lookup(asid, vaddr), ref.lookup(asid, vaddr))
                    << "lookup " << i;
            }
            EXPECT_EQ(tlb.hits.value(), ref.hits);
            EXPECT_EQ(tlb.misses.value(), ref.misses);
            EXPECT_GT(ref.hits, 0u);
            EXPECT_GT(ref.misses, 0u);
        }
    }
}

} // namespace
} // namespace d2m
