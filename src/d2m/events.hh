/**
 * @file
 * D2M protocol event counters, mirroring the Appendix's case taxonomy
 * (A-F, D1-D4) so the PKMO breakdown (events per kilo memory
 * operation) can be reproduced, plus counters for the optimization
 * studies (coverage, replication, pruning, NS locality).
 */

#ifndef D2M_D2M_EVENTS_HH
#define D2M_D2M_EVENTS_HH

#include "common/stats.hh"
#include "sim/sim_object.hh"

namespace d2m
{

/** Counters for the Appendix protocol cases and D2M internals. */
class D2mEvents : public SimObject
{
  public:
    D2mEvents(std::string name, SimObject *parent)
        : SimObject(std::move(name), parent),
          aMd1(this, "aMd1", "case A: read miss, MD1 hit"),
          aMd2(this, "aMd2", "case A: read miss, MD2 hit"),
          aMasterLlc(this, "aMasterLlc", "case A served from LLC master"),
          aMasterMem(this, "aMasterMem", "case A served from memory"),
          aMasterRemote(this, "aMasterRemote",
                        "case A served from a remote node"),
          b(this, "b", "case B: write miss, private region, MD hit"),
          c(this, "c", "case C: write miss, shared region"),
          d1(this, "d1", "case D1: MD miss, untracked -> private"),
          d2(this, "d2", "case D2: MD miss, private -> shared"),
          d3(this, "d3", "case D3: MD miss, shared -> shared"),
          d4(this, "d4", "case D4: MD3 miss, uncached -> private"),
          e(this, "e", "case E: master eviction, private region"),
          f(this, "f", "case F: master eviction, shared region"),
          md1Hits(this, "md1Hits", "metadata lookups satisfied by MD1"),
          md2Hits(this, "md2Hits", "metadata lookups satisfied by MD2"),
          md3Lookups(this, "md3Lookups", "lookups requiring MD3"),
          md2Spills(this, "md2Spills", "MD2 entries spilled (evicted)"),
          md2Prunes(this, "md2Prunes",
                    "MD2 entries dropped by the pruning heuristic"),
          md3Evictions(this, "md3Evictions",
                       "MD3 entries evicted (global region flush)"),
          privateToShared(this, "privateToShared",
                          "regions reclassified private -> shared"),
          sharedToPrivate(this, "sharedToPrivate",
                          "regions reclassified back to private"),
          replicationsInst(this, "replicationsInst",
                           "instruction lines replicated into the "
                           "local NS slice"),
          replicationsData(this, "replicationsData",
                           "data lines replicated into the local NS "
                           "slice (remote-MRU heuristic)"),
          llcAccessesLocal(this, "llcAccessesLocal",
                           "LLC-level services from the local slice"),
          llcAccessesRemote(this, "llcAccessesRemote",
                            "LLC-level services from a remote slice "
                            "or far side"),
          directAccesses(this, "directAccesses",
                         "misses serviced without any MD3 access "
                         "(cases A and B)"),
          lockAcquisitions(this, "lockAcquisitions",
                           "MD3 region-lock acquisitions"),
          coverage(this, "coverage",
                   "MD level x data level coverage matrix samples"),
          liHopsPerMiss(this, "liHopsPerMiss",
                        "LI-indirection hops followed per L1 miss "
                        "(0 = direct service, no master chase)")
    {}

    stats::Counter aMd1, aMd2, aMasterLlc, aMasterMem, aMasterRemote;
    stats::Counter b, c, d1, d2, d3, d4, e, f;
    stats::Counter md1Hits, md2Hits, md3Lookups;
    stats::Counter md2Spills, md2Prunes, md3Evictions;
    stats::Counter privateToShared, sharedToPrivate;
    stats::Counter replicationsInst, replicationsData;
    stats::Counter llcAccessesLocal, llcAccessesRemote;
    stats::Counter directAccesses;
    stats::Counter lockAcquisitions;
    stats::Counter coverage;
    stats::Histogram2 liHopsPerMiss;

    /**
     * Coverage matrix for the D2D tracking study (Section II-A):
     * [md level: 0=MD1 1=MD2 2=MD3][data level: 0=L1 1=L2 2=LLC 3=MEM
     * 4=remote].
     */
    std::uint64_t coverageMatrix[3][5] = {};

    void
    sampleCoverage(unsigned md_level, unsigned data_level)
    {
        coverageMatrix[md_level][data_level]++;
        ++coverage;
    }

    void
    resetStats() override
    {
        StatGroup::resetStats();
        for (auto &row : coverageMatrix)
            for (auto &cell : row)
                cell = 0;
    }
};

} // namespace d2m

#endif // D2M_D2M_EVENTS_HH
