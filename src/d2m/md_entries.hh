/**
 * @file
 * Metadata-store entry layouts for MD1, MD2 and MD3 (paper Figures
 * 1 and 2).
 *
 * A node keeps its metadata for a region in one place, its MD2 entry:
 * one LocationInfo per line (default 16 cachelines), the P bit and the
 * scramble. An MD1 entry is a virtually tagged pointer to that MD2
 * entry. While one exists, the MD2 entry's tracking pointer names it
 * back, so each of the two names the other (DESIGN.md §7.12).
 */

#ifndef D2M_D2M_MD_ENTRIES_HH
#define D2M_D2M_MD_ENTRIES_HH

#include <array>
#include <cstdint>

#include "d2m/location_info.hh"

namespace d2m
{

/** Maximum cachelines per region supported by the fixed entry layout. */
constexpr unsigned maxRegionLines = 16;

/** Per-line LI vector stored in every metadata entry. */
using LiVector = std::array<LocationInfo, maxRegionLines>;

/** First-level metadata entry: virtually tagged (it replaces the TLB),
 * it points to the node's MD2 entry for the region. */
struct Md1Entry
{
    bool valid = false;
    std::uint64_t key = 0;      //!< (asid, virtual region) composite.
    std::uint32_t md2Set = 0;   //!< Position of the MD2 entry.
    std::uint32_t md2Way = 0;
};

/** Second-level metadata entry (physically tagged): the node's one
 * copy of its metadata for the region. */
struct Md2Entry
{
    bool valid = false;
    std::uint64_t key = 0;      //!< Physical region number.
    bool privateBit = false;    //!< P bit (Table II classification).
    std::uint32_t scramble = 0; //!< Dynamic-indexing value (IV-D).
    LiVector li{};

    // Tracking pointer: the MD1 entry that points here, if any.
    bool activeInMd1 = false;
    bool md1SideI = false;      //!< MD1-I vs MD1-D (paper footnote 2).
    std::uint32_t md1Set = 0;
    std::uint32_t md1Way = 0;
};

/** Shared third-level metadata entry (with presence bits). */
struct Md3Entry
{
    bool valid = false;
    std::uint64_t key = 0;      //!< Physical region number.
    std::uint64_t pb = 0;       //!< Presence bit per node.
    std::uint32_t scramble = 0;
    /**
     * Global LIs (Node / Llc / Mem only). Invalid while the region is
     * classified private — the owning node's MD2 is authoritative then
     * (Appendix case B note).
     */
    LiVector li{};
};

/** Region classification derived from the PB bits (paper Table II). */
enum class RegionClass : std::uint8_t
{
    Uncached,   //!< No MD3 entry.
    Untracked,  //!< MD3 entry, no PB bits: only the LLC/MD3 track it.
    Private,    //!< Exactly one PB bit.
    Shared,     //!< More than one PB bit.
};

/** popcount helper (avoids pulling <bit> into every user). */
constexpr unsigned
popCountU64(std::uint64_t v)
{
    unsigned c = 0;
    while (v) {
        v &= v - 1;
        ++c;
    }
    return c;
}

/** @return the Table II class for an MD3 entry state. */
constexpr RegionClass
classify(bool has_entry, std::uint64_t pb)
{
    if (!has_entry)
        return RegionClass::Uncached;
    const unsigned n = popCountU64(pb);
    if (n == 0)
        return RegionClass::Untracked;
    return n == 1 ? RegionClass::Private : RegionClass::Shared;
}

} // namespace d2m

#endif // D2M_D2M_MD_ENTRIES_HH
