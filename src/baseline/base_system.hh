/**
 * @file
 * The baseline systems: Base-2L and Base-3L (paper Section V-A,
 * Figure 4).
 *
 * Classic tag-based hierarchy: per-node L1-I/L1-D (8-way, perfect way
 * prediction as granted by the paper), an optional private unified L2
 * (Base-3L), and a shared inclusive far-side LLC with an embedded
 * full-map MESI directory. Every L1 miss crosses the interconnect,
 * searches the LLC tags associatively and consults the directory;
 * remote M/E copies require a forwarding indirection — exactly the
 * costs D2M removes.
 */

#ifndef D2M_BASELINE_BASE_SYSTEM_HH
#define D2M_BASELINE_BASE_SYSTEM_HH

#include <memory>
#include <string>
#include <vector>

#include "baseline/classic_cache.hh"
#include "cpu/hier_stats.hh"
#include "cpu/mem_system.hh"

namespace d2m
{

/** A classic directory-coherent two- or three-level system. */
class BaselineSystem : public MemorySystem
{
  public:
    /**
     * @param params system description; params.l2.present() selects
     *               Base-3L, otherwise Base-2L.
     */
    BaselineSystem(std::string name, const SystemParams &params);

    AccessResult access(NodeId node, const MemAccess &acc,
                        Tick now) override;

    bool checkInvariants(std::string &why) const override;
    double sramKib() const override;

    const char *
    configName() const override
    {
        return hasL2_ ? "Base-3L" : "Base-2L";
    }

    HierarchyStats &hierStats() { return stats_; }
    const HierarchyStats &hierStats() const { return stats_; }

  private:
    struct Node
    {
        std::unique_ptr<Tlb> tlb;
        std::unique_ptr<ClassicCache> l1i;
        std::unique_ptr<ClassicCache> l1d;
        std::unique_ptr<ClassicCache> l2;  // Base-3L only
    };

    /** Pick the L1 serving @p type in @p node. */
    ClassicCache &l1For(NodeId node, AccessType type);

    /** Translate through the per-node TLB, charging energy/latency. */
    Addr translate(NodeId node, const MemAccess &acc, Cycles &lat);

    /**
     * Probe node @p n for @p line_addr (both L1s and the L2),
     * charging the inward associative-search energy the paper
     * attributes to traditional designs.
     * @return the most authoritative valid copy, or nullptr.
     */
    ClassicLine *probeNode(NodeId n, Addr line_addr, ClassicCache **where);

    /**
     * Invalidate every copy of @p line_addr in node @p n.
     * @return the M-state value via @p mval if a dirty copy existed.
     */
    bool invalidateInNode(NodeId n, Addr line_addr, std::uint64_t &mval);

    /** Evict @p victim from an L1 (and L2 copy handling). */
    void evictPrivateLine(NodeId node, ClassicCache &cache,
                          ClassicLine &victim);

    /** Make room in the LLC for @p line_addr (inclusive back-inv). */
    ClassicLine &allocateLlc(Addr line_addr, Cycles &lat);

    /**
     * Service a miss at the LLC/directory level.
     * @return the line value; fills @p lat, @p level and the MESI
     * state granted by the directory (E for a sole reader).
     */
    std::uint64_t llcService(NodeId node, Addr line_addr, bool want_excl,
                             Cycles &lat, ServiceLevel &level,
                             Mesi &granted);

    /** Install @p line_addr into node @p node's hierarchy. */
    void installPrivate(NodeId node, AccessType type, Addr line_addr,
                        Mesi state, std::uint64_t value);

    /** Invalidate all sharers of @p llc_line except @p except. */
    Cycles invalidateSharers(ClassicLine &llc_line, NodeId except);

    bool hasL2_;
    std::vector<Node> nodes_;
    std::unique_ptr<ClassicCache> llc_;
    HierarchyStats stats_;
};

} // namespace d2m

#endif // D2M_BASELINE_BASE_SYSTEM_HH
