/**
 * @file
 * NS-LLC placement on the D2M mechanism: always-local against the
 * paper's 80/20 pressure heuristic (Section IV-B).
 *
 * The paper stresses that "D2M's contribution is in the mechanism,
 * not the policy" (footnote 3): the split hierarchy decouples
 * placement from addressing, so a node's victims may land in any
 * near-side slice. This example runs D2M-NS on a capacity-imbalanced
 * workload twice, once never spilling to a remote slice and once with
 * the pressure heuristic, and compares the two.
 */

#include <cstdio>

#include "harness/runner.hh"

int
main()
{
    using namespace d2m;

    // Core 0 works on a big footprint, the others are nearly idle.
    // The pressure heuristic lets core 0 overflow into its neighbors'
    // slices.
    WorkloadParams heavy;
    heavy.instructionsPerCore = 100'000;
    heavy.privateFootprint = 3 << 20;
    heavy.streamFraction = 0.1;
    heavy.hotDataFraction = 0.55;
    heavy.warmDataFraction = 0.3;
    heavy.seed = 17;
    const NamedWorkload wl{"example", "imbalanced", heavy};

    SweepOptions local_only;
    local_only.verbose = false;
    local_only.baseParams.nsRemoteAllocShare = 0.0;  // never spill
    SweepOptions paper;
    paper.verbose = false;
    paper.baseParams.nsRemoteAllocShare = 0.20;      // 80/20 heuristic

    const Metrics m_local = runOne(ConfigKind::D2mNs, wl, local_only);
    const Metrics m_paper = runOne(ConfigKind::D2mNs, wl, paper);

    std::printf("%-28s %14s %16s\n", "D2M-NS placement", "always-local",
                "pressure 80/20");
    std::printf("%-28s %14.3f %16.3f\n", "IPC", m_local.ipc, m_paper.ipc);
    std::printf("%-28s %14.1f %16.1f\n", "avg miss latency",
                m_local.avgMissLatency, m_paper.avgMissLatency);
    std::printf("%-28s %14.0f %16.0f\n", "LLC services local %",
                m_local.nsLocalPct, m_paper.nsLocalPct);
    return 0;
}
