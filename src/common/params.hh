/**
 * @file
 * System configuration parameters (the paper's Table III analogue).
 *
 * One SystemParams instance describes a complete simulated machine;
 * the harness builds Base-2L / Base-3L / D2M-FS / D2M-NS / D2M-NS-R
 * from presets over this struct (see harness/configs.hh).
 */

#ifndef D2M_COMMON_PARAMS_HH
#define D2M_COMMON_PARAMS_HH

#include <cstdint>

#include "common/types.hh"

namespace d2m
{

/** One cache level's size/associativity. */
struct CacheParams
{
    std::uint32_t sizeBytes = 0;
    std::uint32_t assoc = 8;

    bool present() const { return sizeBytes != 0; }
};

/** Fixed access latencies (cycles) of the hierarchy pieces. */
struct LatencyParams
{
    Cycles l1Hit = 2;       //!< L1 load-to-use on a hit.
    Cycles l2 = 10;         //!< Private L2 access.
    Cycles llc = 18;        //!< LLC array access (either side).
    Cycles dram = 160;      //!< DRAM access.
    Cycles nocHop = 12;     //!< One interconnect traversal.
    Cycles tlb2 = 3;        //!< Second-level TLB.
    Cycles pageWalk = 60;   //!< Page-table walk on TLB2 miss.
    Cycles md2 = 3;         //!< MD2 access.
    Cycles md3 = 10;        //!< MD3 access (on par with a directory).
    Cycles directory = 10;  //!< Baseline directory access.
};

/** OoO core timing-approximation parameters (see cpu/ooo_model.hh). */
struct CoreParams
{
    unsigned issueWidth = 3;    //!< Instructions per cycle when unstalled.
    unsigned robEntries = 128;  //!< In-flight instruction window.
    unsigned mshrs = 10;        //!< Outstanding misses per core.
};

/** Full system description. */
struct SystemParams
{
    unsigned numNodes = 4;
    unsigned lineSize = 64;
    unsigned regionLines = 16;  //!< Cachelines per metadata region.
    unsigned pageShift = 12;

    CacheParams l1i{32 * 1024, 8};
    CacheParams l1d{32 * 1024, 8};
    CacheParams l2{0, 8};               //!< Base-3L: 256 KiB per core.
    CacheParams llc{4 * 1024 * 1024, 32};

    unsigned tlbEntries = 64;
    unsigned tlb2Entries = 1024;

    // D2M metadata sizing (paper footnote 5: 1x = 128 / 4K / 16K).
    unsigned md1Entries = 128;
    unsigned md1Assoc = 8;
    unsigned md2Entries = 4096;
    unsigned md2Assoc = 8;
    unsigned md3Entries = 16384;
    unsigned md3Assoc = 16;

    // D2M optimization toggles (Section IV).
    bool nearSideLlc = false;      //!< NS-LLC slices (IV-B).
    bool replication = false;      //!< NS-LLC replication (IV-C).
    bool dynamicIndexing = false;  //!< Region index scrambling (IV-D).
    bool md2Pruning = true;        //!< MD2 pruning heuristic (IV-A).

    /** NS-LLC placement: remote-allocation share under high local
     * pressure (paper: 80% local / 20% remote). */
    double nsRemoteAllocShare = 0.20;
    /** NS-LLC pressure exchange period, cycles (paper: 10k). */
    Cycles nsPressurePeriod = 10000;

    LatencyParams lat;
    CoreParams core;

    std::uint64_t seed = 12345;

    unsigned lineShift() const;
    unsigned regionShift() const;
    std::uint32_t l1Lines(const CacheParams &c) const;
    /** Total SRAM capacity in KiB for leakage accounting. */
    double totalSramKib(bool is_d2m, bool has_directory) const;
};

} // namespace d2m

#endif // D2M_COMMON_PARAMS_HH
