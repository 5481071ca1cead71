/**
 * @file
 * The abstract memory-system interface that cores drive, plus the
 * shared substrate (page table, interconnect, DRAM, energy account)
 * every concrete system owns.
 *
 * Memory transactions execute atomically (functionally complete in one
 * call) with timing annotation: the returned latency is the sum of the
 * critical-path components. Cores interleave by issue time (see
 * cpu/multicore.hh), so the global order of access() calls defines the
 * architectural order used for golden-memory checking.
 */

#ifndef D2M_CPU_MEM_SYSTEM_HH
#define D2M_CPU_MEM_SYSTEM_HH

#include <memory>
#include <string>

#include "common/params.hh"
#include "common/types.hh"
#include "cpu/hier_stats.hh"
#include "energy/energy_model.hh"
#include "mem/access.hh"
#include "mem/main_memory.hh"
#include "mem/page_table.hh"
#include "noc/interconnect.hh"
#include "sim/sim_object.hh"

namespace d2m
{

/** Abstract coherent multicore memory system. */
class MemorySystem : public SimObject
{
  public:
    MemorySystem(std::string name, const SystemParams &params,
                 Cycles noc_hop)
        : SimObject(std::move(name)), params_(params),
          lineShift_(params.lineShift()), pageTable_(params.pageShift),
          noc_("noc", this, params.numNodes, params.lineSize, noc_hop),
          memory_("mem", this),
          energy_("energy", this)
    {}

    ~MemorySystem() override = default;

    /**
     * Execute one memory access from @p node atomically.
     * @param now the issuing core's current cycle (drives periodic
     *            policies such as the NS-LLC pressure exchange).
     */
    virtual AccessResult access(NodeId node, const MemAccess &acc,
                                Tick now) = 0;

    /** Verify internal invariants; fills @p why on failure. */
    virtual bool checkInvariants(std::string &why) const
    {
        (void)why;
        return true;
    }

    /** Total SRAM capacity in KiB (for leakage in the EDP metric). */
    virtual double sramKib() const = 0;

    /** Human-readable configuration name ("Base-2L", "D2M-NS-R", ...). */
    virtual const char *configName() const = 0;

    const SystemParams &params() const { return params_; }
    /** log2 of the line size, computed once at construction. */
    unsigned lineShift() const { return lineShift_; }
    PageTable &pageTable() { return pageTable_; }
    Interconnect &noc() { return noc_; }
    const Interconnect &noc() const { return noc_; }
    MainMemory &memory() { return memory_; }
    const MainMemory &memory() const { return memory_; }
    EnergyAccount &energy() { return energy_; }
    const EnergyAccount &energy() const { return energy_; }

  protected:
    /** Endpoint id of the far side of the interconnect. */
    std::uint32_t farSide() const { return params_.numNodes; }

    SystemParams params_;
    const unsigned lineShift_;  //!< params_.lineShift(), read per access.
    PageTable pageTable_;
    Interconnect noc_;
    MainMemory memory_;
    EnergyAccount energy_;
};

} // namespace d2m

#endif // D2M_CPU_MEM_SYSTEM_HH
