/**
 * @file
 * Cache-hierarchy energy model.
 *
 * The paper derives energy from CACTI 6.0 / McPAT at 22nm. We embed a
 * representative 22nm per-access energy table with the same relative
 * ordering that drives the paper's conclusions: associative tag
 * searches and interconnect transfers dominate; direct single-way data
 * accesses are cheap. Absolute joules are not meaningful; all EDP
 * results are reported normalized to Base-2L, as in Figure 6.
 *
 * DRAM device energy is excluded from "cache hierarchy energy" (the
 * paper's Figure 6 metric); DRAM traffic still appears in the NoC
 * accounting through MemRead/MemWrite messages.
 */

#ifndef D2M_ENERGY_ENERGY_MODEL_HH
#define D2M_ENERGY_ENERGY_MODEL_HH

#include <array>
#include <cstdint>
#include <string>

#include "common/types.hh"
#include "sim/sim_object.hh"

namespace d2m
{

/** SRAM structures whose accesses are individually accounted. */
enum class Structure : std::uint8_t
{
    L1Tag,      //!< One L1 tag way check (baseline only; D2M is tag-less).
    L1Data,     //!< One L1 data way read/write.
    L2Tag,      //!< One L2 tag way check.
    L2Data,     //!< One L2 data way read/write.
    LlcTag,     //!< One LLC tag way check (baseline associative search).
    LlcData,    //!< One LLC data way read/write.
    Tlb,        //!< First-level TLB lookup (baseline path).
    Tlb2,       //!< Second-level TLB lookup (D2M MD2 path, large pages).
    PageWalk,   //!< Page table walk.
    Directory,  //!< Baseline directory entry access.
    Md1,        //!< MD1 lookup/update (D2M).
    Md2,        //!< MD2 lookup/update (D2M).
    Md3,        //!< MD3 lookup/update (D2M).
    NUM_STRUCTURES
};

/** @return printable name of @p s. */
const char *structureName(Structure s);

/** Per-access dynamic energies (pJ) and leakage density. */
struct EnergyTable
{
    std::array<double, static_cast<size_t>(Structure::NUM_STRUCTURES)>
        accessPj{};
    /** Interconnect transfer energy per byte per hop (pJ). */
    double nocPjPerByte = 0.55;
    /** Leakage, pJ per cycle per KiB of SRAM. */
    double leakPjPerCyclePerKib = 0.004;

    /** Representative 22nm values (CACTI-like relative ordering). */
    static EnergyTable default22nm();
};

/**
 * Access-count accumulator for one simulated system.
 *
 * Also used for the paper's SRAM-pressure comparison (Section V-B:
 * MD3 accesses vs directory accesses, MD2 vs L2 tags).
 */
class EnergyAccount : public SimObject
{
  public:
    EnergyAccount(std::string name, SimObject *parent)
        : SimObject(std::move(name), parent)
    {
        counts_.fill(0);
    }

    void
    count(Structure s, std::uint64_t n = 1)
    {
        counts_[static_cast<size_t>(s)] += n;
    }

    std::uint64_t
    countOf(Structure s) const
    {
        return counts_[static_cast<size_t>(s)];
    }

    /** Dynamic SRAM energy in pJ (excludes NoC; see totalPj). */
    double dynamicSramPj(const EnergyTable &table) const;

    /**
     * Total cache-hierarchy energy in pJ.
     *
     * @param table       energy coefficients
     * @param noc_bytes   total interconnect bytes moved
     * @param sram_kib    total SRAM capacity (for leakage)
     * @param cycles      execution time in cycles (for leakage)
     */
    double totalPj(const EnergyTable &table, std::uint64_t noc_bytes,
                   double sram_kib, Cycles cycles) const;

    void printCounts(std::ostream &os) const;

    void
    resetStats() override
    {
        StatGroup::resetStats();
        counts_.fill(0);
    }

  private:
    std::array<std::uint64_t, static_cast<size_t>(Structure::NUM_STRUCTURES)>
        counts_;
};

} // namespace d2m

#endif // D2M_ENERGY_ENERGY_MODEL_HH
