/**
 * @file
 * Victim selection over the ways of one set.
 *
 * Each store keeps one packed per-way array of recency stamps (a
 * store-wide counter, bumped on every use and install) and hands the
 * slice of one set to these functions, so a victim scan touches one
 * or two cache lines instead of chasing N pointers. Two rules cover
 * every store:
 *  - lruVictim: classic least-recently-used, for the data arrays
 *    (classic and tag-less) and MD1.
 *  - costAwareLruVictim: LRU biased by an eviction cost, for MD2 and
 *    MD3, where the paper prefers victims that track few cachelines
 *    or have few sharers (Sections II-A and III).
 */

#ifndef D2M_MEM_REPLACEMENT_HH
#define D2M_MEM_REPLACEMENT_HH

#include <cstdint>
#include <type_traits>

namespace d2m
{

/** Widest set costAwareLruVictim() ranks: it sorts on the stack. */
inline constexpr std::uint32_t maxRankedWays = 64;

/**
 * @return the way with the oldest of the @p n (>= 1) @p stamps; the
 * lowest such way on a tie.
 */
inline std::uint32_t
lruVictim(const std::uint64_t *stamps, std::uint32_t n)
{
    std::uint32_t best = 0;
    for (std::uint32_t i = 1; i < n; ++i) {
        if (stamps[i] < stamps[best])
            best = i;
    }
    return best;
}

/**
 * @return the way minimising 2 * cost_of(way) + rank over the @p n
 * (1..maxRankedWays) @p stamps, where rank counts the ways with a
 * strictly older stamp; the lowest such way on a tie. With equal
 * costs this is lruVictim().
 */
template <typename CostOf>
std::uint32_t
costAwareLruVictim(const std::uint64_t *stamps, std::uint32_t n,
                   const CostOf &cost_of)
{
    static_assert(
        std::is_same_v<std::invoke_result_t<const CostOf &, std::uint32_t>,
                       unsigned>,
        "eviction costs are unsigned");

    // Insertion sort of the ways, oldest first. Equal stamps end up
    // adjacent, so a way's rank is the position of the first way
    // sharing its stamp.
    std::uint8_t order[maxRankedWays] = {};  // order[0]: way 0
    for (std::uint32_t i = 1; i < n; ++i) {
        std::uint32_t j = i;
        for (; j > 0 && stamps[order[j - 1]] > stamps[i]; --j)
            order[j] = order[j - 1];
        order[j] = static_cast<std::uint8_t>(i);
    }

    std::uint32_t best = order[0];
    unsigned best_score = 2 * cost_of(best);
    unsigned rank = 0;
    for (std::uint32_t k = 1; k < n; ++k) {
        const std::uint32_t w = order[k];
        if (stamps[w] != stamps[order[k - 1]])
            rank = k;
        // Every later way scores at least its rank.
        if (rank > best_score)
            break;
        const unsigned score = 2 * cost_of(w) + rank;
        if (score < best_score || (score == best_score && w < best)) {
            best_score = score;
            best = w;
        }
    }
    return best;
}

} // namespace d2m

#endif // D2M_MEM_REPLACEMENT_HH
