/**
 * @file
 * A classic tag-based set-associative cache with MESI line states.
 *
 * Used for every level of the baseline systems (Base-2L / Base-3L,
 * Section V-A, Figure 4). The LLC variant embeds a full-map directory
 * entry (sharer mask + owner) per line, following the paper's baseline
 * of an inclusive shared LLC with a central directory.
 */

#ifndef D2M_BASELINE_CLASSIC_CACHE_HH
#define D2M_BASELINE_CLASSIC_CACHE_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "mem/geometry.hh"
#include "sim/sim_object.hh"

namespace d2m
{

/** MESI line states. */
enum class Mesi : std::uint8_t { I, S, E, M };

/** One cache line: tag + state + simulated data + directory info. */
struct ClassicLine
{
    Addr lineAddr = invalidAddr;  //!< Full line address (tag).
    Mesi state = Mesi::I;
    std::uint64_t value = 0;      //!< Simulated line contents.
    bool dirty = false;           //!< LLC: newer than memory.

    // Directory fields (used at the LLC level only).
    std::uint64_t sharers = 0;    //!< Bit per node with a (possibly
                                  //!< stale) copy.
    NodeId owner = invalidNode;   //!< Node holding the line E/M.

    bool valid() const { return state != Mesi::I; }

    void
    invalidate()
    {
        lineAddr = invalidAddr;
        state = Mesi::I;
        dirty = false;
        sharers = 0;
        owner = invalidNode;
    }
};

/** Tag-based set-associative cache. */
class ClassicCache : public SimObject
{
  public:
    ClassicCache(std::string name, SimObject *parent,
                 std::uint32_t total_lines, std::uint32_t assoc,
                 unsigned line_shift);

    /** @return the line holding @p line_addr, or nullptr on miss.
     * Updates recency on hit. */
    ClassicLine *lookup(Addr line_addr);

    /** @return the line holding @p line_addr without touching
     * replacement state (for probes and checkers). */
    ClassicLine *probe(Addr line_addr);
    const ClassicLine *probe(Addr line_addr) const;

    /**
     * Pick a victim way in @p line_addr's set (invalid ways first).
     * The caller is responsible for handling the victim's contents
     * before calling install().
     */
    ClassicLine &victimFor(Addr line_addr);

    /** Reset @p slot and bind it to @p line_addr with @p state. */
    void install(ClassicLine &slot, Addr line_addr, Mesi state,
                 std::uint64_t value);

    /** @return true if @p line is currently in the MRU position of
     * its set (used by the replication heuristic's baseline analog). */
    bool isMru(const ClassicLine &line) const;

    const SetAssocGeometry &geometry() const { return geom_; }
    std::uint32_t assoc() const { return geom_.assoc(); }

    /** Iterate all valid lines (checker support). */
    template <typename Fn>
    void
    forEachLine(Fn &&fn) const
    {
        for (const auto &line : lines_) {
            if (line.valid())
                fn(line);
        }
    }

  private:
    std::uint32_t
    indexOf(const ClassicLine &line) const
    {
        return static_cast<std::uint32_t>(&line - lines_.data());
    }

    SetAssocGeometry geom_;
    std::vector<ClassicLine> lines_;
    /**
     * Packed tag mirror, written only by install(): probes scan this
     * array and verify candidates against the authoritative line, so
     * invalidation never maintains the mirror (a stale slot is
     * filtered; false negatives are impossible because install() is
     * the only valid-making writer of lineAddr).
     */
    std::vector<Addr> tagMirror_;
    /** Per-line LRU stamps, contiguous per set (SoA). */
    std::vector<std::uint64_t> stamps_;
    std::uint64_t clock_ = 0;
};

} // namespace d2m

#endif // D2M_BASELINE_CLASSIC_CACHE_HH
