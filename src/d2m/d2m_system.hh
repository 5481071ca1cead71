/**
 * @file
 * The Direct-to-Master (D2M) split cache hierarchy (paper Sections
 * II-IV and Appendix).
 *
 * Metadata hierarchy: per-node MD1-I/MD1-D (virtually tagged) and MD2
 * (physically tagged, TLB2-translated), and a shared MD3 with presence
 * bits and a blocking lock per region. Data hierarchy: tag-less L1-I /
 * L1-D (optional L2) per node and a tag-less LLC, either one far-side
 * array (D2M-FS) or one near-side slice per node (D2M-NS / D2M-NS-R).
 *
 * Protocol cases follow the Appendix:
 *   A  read miss, MD1/MD2 hit: direct read from the master.
 *   B  write miss, private region: direct read, silent upgrade.
 *   C  write miss, shared region: blocking ReadEx through MD3.
 *   D  MD1/MD2 miss: blocking ReadMM through MD3 (D1-D4 by PB count).
 *   E  master eviction, private region: RP victim location, local MD
 *      update only.
 *   F  master eviction, shared region: EvictReq + NewMaster multicast.
 *
 * Design notes / documented deviations (see DESIGN.md §2):
 *  - Transactions execute atomically with summed critical-path
 *    latency; the MD3 region locks are counted but never contended.
 *  - RP victim locations are chosen at eviction time (the paper allows
 *    this: "determined prior to eviction"; default RP is MEM).
 *  - Reads of shared regions served from memory install replicas
 *    (master stays MEM); masters enter the LLC through the
 *    private-first lifecycle and evictions, as in the paper.
 */

#ifndef D2M_D2M_D2M_SYSTEM_HH
#define D2M_D2M_D2M_SYSTEM_HH

#include <memory>
#include <string>
#include <vector>

#include "cpu/hier_stats.hh"
#include "cpu/mem_system.hh"
#include "d2m/events.hh"
#include "d2m/location_info.hh"
#include "d2m/md_entries.hh"
#include "d2m/policies.hh"
#include "d2m/region_store.hh"
#include "d2m/tagless_cache.hh"

namespace d2m
{

/** The D2M split-hierarchy system (FS / NS / NS-R by params). */
class D2mSystem : public MemorySystem
{
  public:
    D2mSystem(std::string name, const SystemParams &params);

    AccessResult access(NodeId node, const MemAccess &acc,
                        Tick now) override;

    bool checkInvariants(std::string &why) const override;
    double sramKib() const override;
    const char *configName() const override;

    HierarchyStats &hierStats() { return stats_; }
    const HierarchyStats &hierStats() const { return stats_; }
    D2mEvents &events() { return events_; }
    const D2mEvents &events() const { return events_; }
    const LiCodec &liCodec() const { return codec_; }

    /** Classification of @p pregion per Table II (test support). */
    RegionClass regionClass(std::uint64_t pregion) const;

  private:
    // The invariant negative tests corrupt the hierarchy directly.
    friend struct D2mTestPeer;
    // ---- structural -------------------------------------------------
    struct NodeCtx
    {
        std::unique_ptr<Tlb> tlb2;
        std::unique_ptr<RegionStore<Md1Entry>> md1i;
        std::unique_ptr<RegionStore<Md1Entry>> md1d;
        std::unique_ptr<RegionStore<Md2Entry>> md2;
        std::unique_ptr<TaglessCache> l1i;
        std::unique_ptr<TaglessCache> l1d;
        std::unique_ptr<TaglessCache> l2;  // optional
    };

    // ---- address helpers --------------------------------------------
    Addr lineOf(Addr paddr) const { return paddr >> lineShift_; }
    std::uint64_t regionOf(Addr line_addr) const
    {
        return line_addr >> regionLinesLog_;
    }
    unsigned lineIdxOf(Addr line_addr) const
    {
        return static_cast<unsigned>(line_addr & (params_.regionLines - 1));
    }
    /** Line address of line @p idx of region @p pregion. */
    Addr regionLine(std::uint64_t pregion, unsigned idx) const
    {
        return (pregion << regionLinesLog_) | idx;
    }
    std::uint64_t md1Key(AsId asid, Addr vaddr) const
    {
        return (std::uint64_t(asid) << 44) ^ (vaddr >> regionShift_);
    }

    TaglessCache &l1For(NodeId node, bool side_i)
    {
        return side_i ? *nodes_[node].l1i : *nodes_[node].l1d;
    }
    RegionStore<Md1Entry> &md1For(NodeId node, bool side_i)
    {
        return side_i ? *nodes_[node].md1i : *nodes_[node].md1d;
    }
    const RegionStore<Md1Entry> &md1For(NodeId node, bool side_i) const
    {
        return side_i ? *nodes_[node].md1i : *nodes_[node].md1d;
    }
    /** The MD1 entry @p e2's tracking pointer names (activeInMd1). */
    Md1Entry &trackedMd1(NodeId node, const Md2Entry &e2)
    {
        return md1For(node, e2.md1SideI).at(e2.md1Set, e2.md1Way);
    }
    const Md1Entry &trackedMd1(NodeId node, const Md2Entry &e2) const
    {
        return md1For(node, e2.md1SideI).at(e2.md1Set, e2.md1Way);
    }
    /** The MD2 entry @p e1's pointer names. */
    Md2Entry &md2Of(NodeId node, const Md1Entry &e1)
    {
        return nodes_[node].md2->at(e1.md2Set, e1.md2Way);
    }
    const Md2Entry &md2Of(NodeId node, const Md1Entry &e1) const
    {
        return nodes_[node].md2->at(e1.md2Set, e1.md2Way);
    }
    /** True when @p e1 and @p e2 are valid and each names the other:
     * @p e1's MD2 pointer and @p e2's tracking pointer. */
    bool linked(NodeId node, const Md1Entry &e1, const Md2Entry &e2) const
    {
        return e1.valid && e2.valid && e2.activeInMd1 &&
               &trackedMd1(node, e2) == &e1 && &md2Of(node, e1) == &e2;
    }
    std::uint32_t sliceEndpoint(std::uint32_t slice) const
    {
        return nearSide_ ? slice : farSide();
    }

    // ---- metadata paths ---------------------------------------------
    /**
     * Find (or fetch, case D) the node's MD2 entry for the access.
     * Handles MD2->MD1 promotion and MD1 side migration. Fills
     * @p md_level with 0/1/2 for MD1 / MD2 / MD3-involving lookups.
     */
    Md2Entry &lookupMetadata(NodeId node, const MemAccess &acc, bool side_i,
                             Cycles &lat, unsigned &md_level);

    /** Case D: metadata miss; fetch the region through MD3. */
    Md2Entry &caseD(NodeId node, bool side_i, AsId asid, Addr vaddr,
                    std::uint64_t pregion, Cycles &lat);

    /** Cache @p e2 (not in MD1) in MD1 on @p side_i. */
    void promoteToMd1(NodeId node, bool side_i, AsId asid, Addr vaddr,
                      Md2Entry &e2);

    /** Evict one MD1 entry: clear its MD2 entry's tracking pointer. */
    void evictMd1Entry(NodeId node, Md1Entry &e1);

    /** The node's MD2 entry for @p pregion (null when untracked),
     * charged as a TP follow: MD2, plus MD1 when cached there. */
    Md2Entry *md2For(NodeId node, std::uint64_t pregion,
                     bool charge_energy = true);

    /** Evict the node's MD2 entry for @p pregion (spill to MD3). */
    void nodeRegionEvict(NodeId node, std::uint64_t pregion);

    /** MD3 eviction: flush @p e3's region from the whole system. */
    void globalMd3Evict(Md3Entry &e3);

    /** Drop a region from a node for an MD3 flush (masters to MEM). */
    void flushNodeRegion(NodeId node, std::uint64_t pregion);

    /** Drop the LLC line @p li names if it still holds @p line_addr,
     * writing it to memory when dirty. */
    void dropLlcLine(const LocationInfo &li, Addr line_addr,
                     std::uint32_t scramble);

    /** MD3 region lock (blocking mechanism; counted, never contended). */
    void lockRegion(std::uint64_t pregion);

    // ---- data paths ---------------------------------------------------
    /**
     * Service the access once metadata is available. Dispatches on the
     * line's LocationInfo.
     */
    AccessResult serviceLine(NodeId node, const MemAccess &acc, bool side_i,
                             Md2Entry &md, Addr line_addr, unsigned md_level,
                             Cycles lat);

    /**
     * Fetch line data from its master location on behalf of @p node
     * (cases A/B/D). Charges traffic/energy/latency.
     * @param scramble the region's scramble, from the requester's MD2.
     * @param invalidate_master also remove the master copy (case B/C).
     */
    std::uint64_t fetchFromMaster(NodeId node, const LocationInfo &master,
                                  std::uint32_t scramble, Addr line_addr,
                                  bool invalidate_master, Cycles &lat,
                                  ServiceLevel &level, bool &was_mru);

    /** Case C: write to a shared region through MD3. */
    std::uint64_t caseC(NodeId node, Md2Entry &md, Addr line_addr,
                        Cycles &lat);

    /** Install a line into the node's L1, evicting as needed. */
    std::uint32_t installL1(NodeId node, bool side_i, Addr line_addr,
                            std::uint32_t scramble, std::uint64_t value,
                            bool master, bool dirty,
                            const LocationInfo &rp,
                            bool exclusive = false);

    /**
     * Evict whatever occupies @p line, a slot of @p node's L1 or (when
     * @p in_l1 is false) L2. A replica falls back to its RP, an L1
     * master moves to the L2 when there is one, and anything else is
     * relocated by masterEvicted() (cases E/F).
     */
    void evictLocal(NodeId node, bool in_l1, TaglessLine &line);

    /** Relocate an evicted master to a victim location (cases E/F). */
    void masterEvicted(NodeId node, TaglessLine &line);

    /** Allocate a victim location in the LLC (placement policy). */
    LocationInfo allocateVictimInLlc(NodeId node, Addr line_addr,
                                     std::uint32_t scramble);

    /** Handle the occupant of an LLC slot being displaced. */
    void evictLlcSlot(std::uint32_t slice, std::uint32_t set,
                      std::uint32_t way);

    /** Replicate @p line_addr into @p node's NS slice (Section IV-C). */
    LocationInfo replicateToLocalSlice(NodeId node, Addr line_addr,
                                       std::uint32_t scramble,
                                       std::uint64_t value,
                                       const LocationInfo &master,
                                       bool is_ifetch);

    /** Invalidate node-local copies of a line; set LI to @p new_master.
     * @return true if a local copy existed (false => false inv). */
    bool invalidateLineAtNode(NodeId n, std::uint64_t pregion,
                              unsigned line_idx, Addr line_addr,
                              const LocationInfo &new_master);

    /** Case F / LLC eviction notification: the master moved. */
    void newMasterAtNode(NodeId n, std::uint64_t pregion, unsigned line_idx,
                         Addr line_addr, const LocationInfo &new_loc);

    /** MD2 pruning heuristic (Section IV-A). */
    void maybePrune(NodeId n, std::uint64_t pregion, Md3Entry &e3);

    /** Result of dropping a line's node-local copy chain. */
    struct DropResult
    {
        bool droppedAny = false;     //!< Some local copy existed.
        bool droppedMaster = false;  //!< The master copy was local.
        std::uint64_t masterValue = 0;
        bool masterDirty = false;
    };

    /**
     * Invalidate every node-local copy of a line (the L1/L2/own-slice
     * replica chain), leaving the LI pointing at the chain's end.
     */
    DropResult dropLocalCopies(NodeId node, Md2Entry &md,
                               unsigned line_idx, Addr line_addr);

    /** Read the node-local copy of a line through the LI chain. */
    std::uint64_t readLocalValue(NodeId node, Md2Entry &md,
                                 unsigned line_idx, Addr line_addr,
                                 Cycles &lat);

    /** @return true if @p li designates a copy held by @p node. */
    bool liIsLocal(NodeId node, const LocationInfo &li,
                   Addr line_addr, std::uint32_t scramble);

    /** Periodic NS-LLC pressure exchange. */
    void pressureEpoch(Tick now);

    /**
     * The data slot an L1, L2 or LLC pointer names for @p line_addr:
     * the only mapping from an LI to an array, a set and a way. @p node
     * and @p side_i select the L1 or L2 (unused for an LLC LI, which
     * names its slice). Panics on an LI that names no slot.
     */
    TaglessLine &slotAt(NodeId node, bool side_i, const LocationInfo &li,
                        Addr line_addr, std::uint32_t scramble);
    const TaglessLine &slotAt(NodeId node, bool side_i,
                              const LocationInfo &li, Addr line_addr,
                              std::uint32_t scramble) const
    {
        return const_cast<D2mSystem *>(this)->slotAt(node, side_i, li,
                                                     line_addr, scramble);
    }

    /**
     * Follow @p node's local copies of @p line_addr from @p li (footnote
     * 13): while the pointer is local (liIsLocal()), resolve its slot,
     * panic unless it holds the line, read its RP, then call
     * @p fn(slot), which may invalidate it. @return the first non-local
     * pointer, which names the master (MEM past a local master).
     */
    template <typename Fn>
    LocationInfo walkLocal(NodeId node, bool side_i, LocationInfo li,
                           Addr line_addr, std::uint32_t scramble, Fn &&fn);

    // ---- members -----------------------------------------------------
    unsigned regionShift_;
    unsigned regionLinesLog_;
    bool nearSide_;
    LiCodec codec_;

    std::vector<NodeCtx> nodes_;
    std::vector<std::unique_ptr<TaglessCache>> llc_;  //!< One per slice.
    std::unique_ptr<RegionStore<Md3Entry>> md3_;

    PressurePlacementPolicy placement_;  //!< Consulted on NS-LLC only.
    IndexScrambler scrambler_;

    Tick nextPressureEpoch_ = 0;

    /** LI hops chased by the access in flight (events_.liHopsPerMiss). */
    std::uint64_t curLiHops_ = 0;

    HierarchyStats stats_;
    D2mEvents events_;
};

} // namespace d2m

#endif // D2M_D2M_D2M_SYSTEM_HH
