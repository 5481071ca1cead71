/**
 * @file
 * Hierarchy-level statistics shared by all system implementations,
 * covering the quantities the paper reports in Tables IV/V and the
 * latency/traffic discussion of Section V.
 */

#ifndef D2M_CPU_HIER_STATS_HH
#define D2M_CPU_HIER_STATS_HH

#include "common/stats.hh"
#include "sim/sim_object.hh"

namespace d2m
{

/** Counters populated by every MemorySystem implementation. */
class HierarchyStats : public SimObject
{
  public:
    HierarchyStats(std::string name, SimObject *parent)
        : SimObject(std::move(name), parent),
          accesses(this, "accesses", "memory accesses processed"),
          ifetches(this, "ifetches", "instruction-fetch accesses"),
          loads(this, "loads", "data loads"),
          stores(this, "stores", "data stores"),
          l1iMisses(this, "l1iMisses", "L1-I misses"),
          l1dMisses(this, "l1dMisses", "L1-D misses"),
          beyondL1I(this, "beyondL1I",
                    "I-side accesses serviced beyond the L1"),
          beyondL1D(this, "beyondL1D",
                    "D-side accesses serviced beyond the L1"),
          nearHitsI(this, "nearHitsI",
                    "I-side beyond-L1 accesses hitting near the core "
                    "(L2 for Base-3L, local NS slice for D2M-NS)"),
          nearHitsD(this, "nearHitsD",
                    "D-side beyond-L1 accesses hitting near the core"),
          invalidationsReceived(this, "invalidationsReceived",
                                "Inv messages delivered to nodes "
                                "(incl. false invalidations)"),
          falseInvalidations(this, "falseInvalidations",
                             "Inv delivered to a node with no copy"),
          missesToPrivate(this, "missesToPrivate",
                          "L1 misses to regions classified private"),
          dirIndirections(this, "dirIndirections",
                          "misses requiring a directory/MD3 access"),
          missLatencyTotal(this, "missLatencyTotal",
                           "summed L1 miss latency (cycles)"),
          dramAccesses(this, "dramAccesses", "accesses serviced by DRAM"),
          accessLatency(this, "accessLatency",
                        "demand-access latency distribution (cycles, "
                        "all accesses incl. L1 hits)"),
          missLatency(this, "missLatency",
                      "L1 miss latency distribution (cycles)")
    {}

    stats::Counter accesses;
    stats::Counter ifetches;
    stats::Counter loads;
    stats::Counter stores;
    stats::Counter l1iMisses;
    stats::Counter l1dMisses;
    stats::Counter beyondL1I;
    stats::Counter beyondL1D;
    stats::Counter nearHitsI;
    stats::Counter nearHitsD;
    stats::Counter invalidationsReceived;
    stats::Counter falseInvalidations;
    stats::Counter missesToPrivate;
    stats::Counter dirIndirections;
    stats::Counter missLatencyTotal;
    stats::Counter dramAccesses;

    // Distribution axis (Section V-D tail-latency comparison): log2
    // histograms with p50/p95/p99 readout.
    stats::Histogram2 accessLatency;
    stats::Histogram2 missLatency;
};

} // namespace d2m

#endif // D2M_CPU_HIER_STATS_HH
