/**
 * @file
 * Tag-less data arrays for the D2M data hierarchy.
 *
 * D2M cachelines have no address tags: they can only be found through
 * metadata LocationInfo pointers, which name an exact (set, way). Each
 * line carries the backward/forward pointers the paper describes: the
 * replacement pointer (RP, Section III-B) naming the victim location
 * (master lines) or the master location (replicas).
 *
 * The stored lineAddr models the hardware tracking pointer (TP): real
 * hardware follows TP to the region's metadata; the simulator finds the
 * node's MD2 entry by region lookup and charges the same energy.
 */

#ifndef D2M_D2M_TAGLESS_CACHE_HH
#define D2M_D2M_TAGLESS_CACHE_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "d2m/location_info.hh"
#include "mem/geometry.hh"
#include "mem/replacement.hh"
#include "sim/sim_object.hh"

namespace d2m
{

/** One tag-less data slot. */
struct TaglessLine
{
    bool valid = false;
    Addr lineAddr = invalidAddr;  //!< Simulator-side TP model.
    std::uint64_t value = 0;
    bool dirty = false;
    bool master = false;          //!< Master vs replicated copy.
    /**
     * For node-resident masters: no replicas can exist anywhere
     * (MESI M/E flavor), so writes upgrade silently. Cleared when a
     * remote read is served from this master (M/E -> O/F flavor).
     */
    bool exclusive = false;
    /**
     * Replacement pointer: victim location for masters (defaults to
     * MEM), master location for replicas.
     */
    LocationInfo rp = LocationInfo::mem();
    /** For LLC replica slots: the node whose MD2 tracks this replica. */
    NodeId ownerNode = invalidNode;

    void
    invalidate()
    {
        valid = false;
        lineAddr = invalidAddr;
        dirty = false;
        master = false;
        exclusive = false;
        rp = LocationInfo::mem();
        ownerNode = invalidNode;
    }
};

/** A tag-less set-associative data array. */
class TaglessCache : public SimObject
{
  public:
    /**
     * @param scrambled honor per-region index scrambling (dynamic
     *        indexing, Section IV-D). Enabled for the LLC arrays where
     *        power-of-two strides alias whole sets; the small L1/L2
     *        arrays index conventionally.
     */
    TaglessCache(std::string name, SimObject *parent,
                 std::uint32_t total_lines, std::uint32_t assoc,
                 unsigned line_shift, bool scrambled = false)
        : SimObject(std::move(name), parent),
          geom_(total_lines, assoc, line_shift), lines_(total_lines),
          stamps_(total_lines), scrambled_(scrambled)
    {}

    /** Set index for @p line_addr under region scramble @p scramble. */
    std::uint32_t
    setFor(Addr line_addr, std::uint32_t scramble = 0) const
    {
        return geom_.setIndex(line_addr << geom_.unitShift(),
                              scrambled_ ? scramble : 0);
    }

    /** Direct slot access (the whole point of D2M: no search). */
    TaglessLine &
    at(std::uint32_t set, std::uint32_t way)
    {
        return lines_[set * geom_.assoc() + way];
    }

    const TaglessLine &
    at(std::uint32_t set, std::uint32_t way) const
    {
        return lines_[set * geom_.assoc() + way];
    }

    /** Record a use for replacement. */
    void
    touch(std::uint32_t set, std::uint32_t way)
    {
        stamps_[set * geom_.assoc() + way] = ++clock_;
    }

    /** Fill (set, way) with @p line as the most recently used slot. */
    void
    install(std::uint32_t set, std::uint32_t way, const TaglessLine &line)
    {
        at(set, way) = line;
        touch(set, way);
    }

    /** Choose a victim way in @p set (invalid ways first). */
    std::uint32_t
    victimWay(std::uint32_t set)
    {
        for (std::uint32_t w = 0; w < geom_.assoc(); ++w) {
            if (!at(set, w).valid)
                return w;
        }
        return lruVictim(stamps_.data() + set * geom_.assoc(),
                         geom_.assoc());
    }

    /** @return true if (set, way) holds the MRU line of its set —
     * drives the replication heuristic (Section IV-C). */
    bool
    isMru(std::uint32_t set, std::uint32_t way) const
    {
        const std::uint32_t base = set * geom_.assoc();
        const std::uint64_t touch = stamps_[base + way];
        for (std::uint32_t w = 0; w < geom_.assoc(); ++w) {
            if (w != way && at(set, w).valid &&
                stamps_[base + w] > touch) {
                return false;
            }
        }
        return true;
    }

    const SetAssocGeometry &geometry() const { return geom_; }
    std::uint32_t assoc() const { return geom_.assoc(); }
    std::uint32_t numSets() const { return geom_.numSets(); }

    template <typename Fn>
    void
    forEachValid(Fn &&fn) const
    {
        for (std::uint32_t i = 0; i < lines_.size(); ++i) {
            if (lines_[i].valid)
                fn(i / geom_.assoc(), i % geom_.assoc(), lines_[i]);
        }
    }

  private:
    SetAssocGeometry geom_;
    std::vector<TaglessLine> lines_;
    /** Per-line LRU stamps, contiguous per set (SoA). */
    std::vector<std::uint64_t> stamps_;
    std::uint64_t clock_ = 0;
    bool scrambled_ = false;
};

} // namespace d2m

#endif // D2M_D2M_TAGLESS_CACHE_HH
