/**
 * @file
 * Data-oriented optimization policies layered on the D2M mechanism
 * (paper Section IV). The paper stresses that D2M's contribution is
 * the mechanism, not the policies, and deliberately evaluates very
 * simple heuristics; this file implements exactly those heuristics.
 */

#ifndef D2M_D2M_POLICIES_HH
#define D2M_D2M_POLICIES_HH

#include <cstdint>
#include <vector>

#include "common/rng.hh"
#include "common/types.hh"

namespace d2m
{

/**
 * NS-LLC placement (Section IV-B), the paper's pressure heuristic:
 * allocate a node's victim locally when the local slice's pressure
 * (replacements per epoch) is not above the others'; otherwise
 * allocate 80% locally and 20% in the least-pressured remote slice.
 */
class PressurePlacementPolicy
{
  public:
    PressurePlacementPolicy(unsigned num_slices, double remote_share,
                            std::uint64_t seed)
        : counts_(num_slices, 0), shared_(num_slices, 0),
          remoteShare_(remote_share), rng_(seed)
    {}

    /** Record one replacement in @p slice (the pressure signal). */
    void recordReplacement(std::uint32_t slice) { ++counts_[slice]; }

    /** Periodic pressure exchange (every 10k cycles in the paper). */
    void
    exchangeEpoch()
    {
        shared_ = counts_;
        for (auto &c : counts_)
            c = 0;
    }

    /** Choose the slice for an allocation by @p node. */
    std::uint32_t chooseSlice(NodeId node);

  private:
    std::vector<std::uint64_t> counts_;   //!< Current epoch.
    std::vector<std::uint64_t> shared_;   //!< Last exchanged snapshot.
    double remoteShare_;
    Rng rng_;
};

/**
 * Replication heuristic (Section IV-C): should a line read from a
 * non-local location be replicated into the reader's NS slice?
 * Instructions always; data only when served from the MRU position of
 * a remote slice.
 */
inline bool
shouldReplicate(bool is_ifetch, bool from_remote_slice, bool was_mru)
{
    return is_ifetch || (from_remote_slice && was_mru);
}

/**
 * Dynamic-indexing scrambler (Section IV-D): produces the random index
 * value stored with each region when it is loaded into MD3.
 */
class IndexScrambler
{
  public:
    IndexScrambler(bool enabled, std::uint64_t seed)
        : enabled_(enabled), rng_(seed)
    {}

    std::uint32_t
    next()
    {
        return enabled_ ? static_cast<std::uint32_t>(rng_.next()) : 0;
    }

    bool enabled() const { return enabled_; }

  private:
    bool enabled_;
    Rng rng_;
};

} // namespace d2m

#endif // D2M_D2M_POLICIES_HH
