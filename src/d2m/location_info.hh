/**
 * @file
 * D2M Location Information (LI) encoding — paper Table I.
 *
 * Each tracked cacheline carries a 6-bit LI pointer:
 *
 *   000NNN   master in remote node NNN
 *   001WWW   in the local L1, way WWW
 *   010WWW   in the local L2, way WWW
 *   011SSS   one of eight symbols ("MEM" is one, "INVALID" another)
 *   1WWWWW   in the LLC, way WWWWW (far-side)
 *
 * With a near-side LLC the last encoding is reinterpreted (Section
 * IV-B) as 1NNWWW / 1NNNWW: the top bits select the slice (node) and
 * the rest the way within the slice. The total LLC way budget (32)
 * stays constant.
 */

#ifndef D2M_D2M_LOCATION_INFO_HH
#define D2M_D2M_LOCATION_INFO_HH

#include <cstdint>
#include <string>
#include <utility>

#include "common/intmath.hh"
#include "common/logging.hh"
#include "common/params.hh"
#include "common/types.hh"

namespace d2m
{

/** What an LI pointer designates. */
enum class LiKind : std::uint8_t
{
    Invalid,  //!< No tracked location (one of the 011SSS symbols).
    Mem,      //!< Master is in memory (the default RP target).
    Node,     //!< Master is somewhere in remote node `node`.
    L1,       //!< In the local L1, way `way`.
    L2,       //!< In the local L2, way `way`.
    Llc,      //!< In LLC slice `node`, way `way` (slice 0 if far-side).
};

/** A decoded location-information pointer. */
struct LocationInfo
{
    LiKind kind = LiKind::Invalid;
    std::uint8_t node = 0;  //!< Node id (Node) or LLC slice (Llc).
    std::uint8_t way = 0;   //!< Way within the designated array.

    bool operator==(const LocationInfo &) const = default;

    bool isInvalid() const { return kind == LiKind::Invalid; }
    bool isMem() const { return kind == LiKind::Mem; }
    bool isLocalCache() const
    {
        return kind == LiKind::L1 || kind == LiKind::L2;
    }

    static LocationInfo mem() { return {LiKind::Mem, 0, 0}; }
    static LocationInfo invalid() { return {}; }
    static LocationInfo inNode(NodeId n)
    {
        return {LiKind::Node, static_cast<std::uint8_t>(n), 0};
    }
    static LocationInfo inL1(std::uint32_t way)
    {
        return {LiKind::L1, 0, static_cast<std::uint8_t>(way)};
    }
    static LocationInfo inL2(std::uint32_t way)
    {
        return {LiKind::L2, 0, static_cast<std::uint8_t>(way)};
    }
    static LocationInfo inLlc(std::uint32_t slice, std::uint32_t way)
    {
        return {LiKind::Llc, static_cast<std::uint8_t>(slice),
                static_cast<std::uint8_t>(way)};
    }
};

/** LLC slices of a D2M system: one per node near-side, else one. */
inline unsigned
llcSlices(const SystemParams &p)
{
    return p.nearSideLlc ? p.numNodes : 1;
}

/**
 * Can the 6-bit LI code name every location of the D2M system @p p
 * describes: its nodes, the ways of its L1-I, L1-D and L2 (when
 * present), and its LLC slices and ways? LiCodec enforces this at
 * construction, and the sweep planner calls it to reject impossible
 * configurations before any cell runs.
 * @return an empty string if it can, else the limit that is exceeded.
 */
inline std::string
liEncodingError(const SystemParams &p)
{
    if (p.numNodes > 8) {
        return vformat("LI encoding supports at most 8 nodes, not %u",
                       p.numNodes);
    }
    // 001WWW and 010WWW: three way bits for each local cache.
    const std::pair<const char *, const CacheParams *> local[] = {
        {"L1-I", &p.l1i}, {"L1-D", &p.l1d}, {"L2", &p.l2}};
    for (const auto &[name, cache] : local) {
        if (cache->present() && cache->assoc > 8) {
            return vformat("LI encoding supports at most 8 %s ways, "
                           "not %u", name, cache->assoc);
        }
    }
    const unsigned slices = llcSlices(p);
    const unsigned ways = p.llc.assoc / slices;
    if (slices * ways > 32) {
        return vformat("LI encoding supports at most 32 total LLC ways, "
                       "not %u", slices * ways);
    }
    if (!isPowerOf2(slices) || !isPowerOf2(ways))
        return "LLC slices and ways must be powers of two";
    return {};
}

/** Bit-level geometry of the 6-bit LI code. */
class LiCodec
{
  public:
    /** The code of the D2M system @p p describes; fatal() when the
     * code cannot name all of its locations (liEncodingError). */
    explicit LiCodec(const SystemParams &p)
        : slices_(llcSlices(p)), sliceWays_(p.llc.assoc / slices_)
    {
        const std::string why = liEncodingError(p);
        fatal_if(!why.empty(), "%s", why.c_str());
        wayBits_ = sliceWays_ > 1 ? floorLog2(sliceWays_) : 0;
    }

    /** Encode @p li into its 6-bit representation. */
    std::uint8_t
    encode(const LocationInfo &li) const
    {
        switch (li.kind) {
          case LiKind::Node:
            return li.node & 0x7;
          case LiKind::L1:
            return 0x08 | (li.way & 0x7);
          case LiKind::L2:
            return 0x10 | (li.way & 0x7);
          case LiKind::Mem:
            return 0x18;  // 011 000: symbol 0 = MEM
          case LiKind::Invalid:
            return 0x19;  // 011 001: symbol 1 = INVALID
          case LiKind::Llc:
            return static_cast<std::uint8_t>(
                0x20 | (li.node << wayBits_) | (li.way & (sliceWays_ - 1)));
        }
        panic("unreachable LI kind");
    }

    /** Decode a 6-bit LI code. */
    LocationInfo
    decode(std::uint8_t code) const
    {
        if (code & 0x20) {
            const std::uint8_t payload = code & 0x1f;
            return LocationInfo::inLlc(payload >> wayBits_,
                                       payload & (sliceWays_ - 1));
        }
        switch ((code >> 3) & 0x3) {
          case 0:
            return LocationInfo::inNode(code & 0x7);
          case 1:
            return LocationInfo::inL1(code & 0x7);
          case 2:
            return LocationInfo::inL2(code & 0x7);
          default:
            return (code & 0x7) == 0 ? LocationInfo::mem()
                                     : LocationInfo::invalid();
        }
    }

    /** Bits in one LI pointer (paper: 6, vs ~30 for an address tag). */
    static constexpr unsigned bitsPerLi() { return 6; }

    unsigned slices() const { return slices_; }
    unsigned sliceWays() const { return sliceWays_; }

  private:
    unsigned slices_;
    unsigned sliceWays_;
    unsigned wayBits_;
};

} // namespace d2m

#endif // D2M_D2M_LOCATION_INFO_HH
