/**
 * @file
 * Tests for the victim functions: plain LRU for the data arrays and
 * MD1, and the cost-aware LRU that MD2/MD3 use to prefer cheap
 * victims (Section II-A). Both take the packed per-way stamp slice of
 * one set, the layout the stores keep.
 *
 * The differential test pins both against the straightforward
 * reference rules: a full LRU scan, and an O(n^2) ranking that scores
 * every way as 2 * cost + rank in double.
 */

#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "common/rng.hh"
#include "mem/replacement.hh"

namespace d2m
{
namespace
{

/** Reference LRU: the first way with the oldest stamp. */
std::uint32_t
oracleLruVictim(const std::vector<std::uint64_t> &stamps)
{
    std::uint32_t best = 0;
    for (std::uint32_t i = 1; i < stamps.size(); ++i) {
        if (stamps[i] < stamps[best])
            best = i;
    }
    return best;
}

/** Reference cost-aware LRU: rank every way by counting the strictly
 * older ways, score 2 * cost + rank in double, first minimum wins. */
std::uint32_t
oracleCostAwareVictim(const std::vector<std::uint64_t> &stamps,
                      const std::vector<unsigned> &costs)
{
    const auto n = static_cast<std::uint32_t>(stamps.size());
    std::uint32_t best = 0;
    double best_score = std::numeric_limits<double>::infinity();
    for (std::uint32_t i = 0; i < n; ++i) {
        unsigned rank = 0;
        for (std::uint32_t j = 0; j < n; ++j) {
            if (stamps[j] < stamps[i])
                ++rank;
        }
        const double score =
            static_cast<double>(costs[i]) * 2.0 + static_cast<double>(rank);
        if (score < best_score) {
            best_score = score;
            best = i;
        }
    }
    return best;
}

std::uint32_t
costAware(const std::vector<std::uint64_t> &stamps,
          const std::vector<unsigned> &costs)
{
    return costAwareLruVictim(
        stamps.data(), static_cast<std::uint32_t>(stamps.size()),
        [&](std::uint32_t w) { return costs[w]; });
}

TEST(Replacement, LruPicksOldest)
{
    std::vector<std::uint64_t> stamps = {1, 2, 3, 4};
    stamps[0] = 10;  // way 0 becomes newest
    EXPECT_EQ(lruVictim(stamps.data(), 4), 1u);  // way 1 oldest
    stamps[1] = 11;
    EXPECT_EQ(lruVictim(stamps.data(), 4), 2u);
}

TEST(Replacement, CostAwarePrefersCheapVictims)
{
    // Way 0 is oldest but very expensive; way 3 newest but free:
    // 2 * cost + recency_rank decides.
    const std::vector<std::uint64_t> stamps = {1, 2, 3, 4};
    const std::vector<unsigned> costs = {100, 0, 0, 0};
    EXPECT_EQ(costAware(stamps, costs), 1u);  // oldest cheap one
}

TEST(Replacement, CostAwareDegradesToLruOnEqualCost)
{
    const std::vector<std::uint64_t> stamps = {10, 9, 8, 7};  // way 3 oldest
    EXPECT_EQ(costAware(stamps, {1, 1, 1, 1}), 3u);
}

TEST(Replacement, MatchesOracleOnSeededSets)
{
    Rng rng(2017);
    std::vector<std::uint32_t> widths;
    for (std::uint32_t n = 1; n <= 16; ++n)
        widths.push_back(n);
    widths.push_back(maxRankedWays);

    for (std::uint32_t n : widths) {
        for (int trial = 0; trial < 2000; ++trial) {
            // A narrow stamp range forces ties; a wide one mostly
            // gives distinct stamps, like a store's clock.
            const std::uint64_t span = trial % 2 ? 4 : 1'000'000;
            std::vector<std::uint64_t> stamps(n);
            for (auto &s : stamps)
                s = rng.below(span);
            // All-zero costs: the cost-aware ranking is plain LRU,
            // which is what MD1 runs.
            std::vector<unsigned> costs(n, 0);
            const std::uint32_t lru = lruVictim(stamps.data(), n);
            ASSERT_EQ(lru, oracleLruVictim(stamps))
                << "n=" << n << " trial=" << trial;
            ASSERT_EQ(lru, oracleCostAwareVictim(stamps, costs))
                << "n=" << n << " trial=" << trial << " zero costs";
            ASSERT_EQ(costAware(stamps, costs), lru)
                << "n=" << n << " trial=" << trial << " zero costs";
            const unsigned max_cost = trial % 3 ? 4 : 40;
            for (auto &c : costs)
                c = static_cast<unsigned>(rng.below(max_cost));
            ASSERT_EQ(costAware(stamps, costs),
                      oracleCostAwareVictim(stamps, costs))
                << "n=" << n << " trial=" << trial << " mixed costs";
        }
    }
}

} // namespace
} // namespace d2m
