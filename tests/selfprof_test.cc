/**
 * @file
 * Simulation self-profiler tests (DESIGN.md §15):
 *
 *  - timer-tree correctness: nesting, distinct (parent, site) nodes,
 *    call counts, self-vs-inclusive time, exception unwind, and the
 *    warmup phaseReset() semantics,
 *  - thread-local attachment isolation (the property that lets
 *    parallel sweep jobs each profile their own run),
 *  - the disabled-path overhead guard: a ProfScope with no attached
 *    profiler must stay a branch, not a clock read,
 *  - end-to-end coverage: on a real run the attributed tree must
 *    account for >= 90% of the measured-phase wall-clock.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>

#include "cpu/multicore.hh"
#include "harness/configs.hh"
#include "harness/runner.hh"
#include "obs/selfprof.hh"
#include "workload/suites.hh"

namespace d2m
{
namespace
{

using obs::ProfScope;
using obs::ProfSite;
using obs::SelfProfAttach;
using obs::SelfProfiler;

/** Index of the tree node for @p site under @p parent (-1 = root). */
int
findNode(const SelfProfiler &prof, ProfSite site, int parent)
{
    const auto &nodes = prof.tree();
    for (std::size_t i = 0; i < nodes.size(); ++i) {
        if (nodes[i].site == site && nodes[i].parent == parent)
            return static_cast<int>(i);
    }
    return -1;
}

TEST(SelfProfiler, TreeNestingAndCallCounts)
{
    SelfProfiler prof;
    SelfProfAttach attach(&prof);
    for (int i = 0; i < 3; ++i) {
        ProfScope outer(ProfSite::MemAccess);
        {
            ProfScope inner(ProfSite::MdLookup);
        }
        {
            ProfScope inner(ProfSite::ServiceLine);
            ProfScope deeper(ProfSite::NocSend);
        }
    }
    // Same site at a different nesting: a distinct node.
    {
        ProfScope top(ProfSite::NocSend);
    }
    ASSERT_TRUE(prof.stackEmpty());

    const int mem = findNode(prof, ProfSite::MemAccess, -1);
    ASSERT_GE(mem, 0);
    const int md = findNode(prof, ProfSite::MdLookup, mem);
    const int svc = findNode(prof, ProfSite::ServiceLine, mem);
    ASSERT_GE(md, 0);
    ASSERT_GE(svc, 0);
    const int noc_deep = findNode(prof, ProfSite::NocSend, svc);
    const int noc_top = findNode(prof, ProfSite::NocSend, -1);
    ASSERT_GE(noc_deep, 0);
    ASSERT_GE(noc_top, 0);
    EXPECT_NE(noc_deep, noc_top)
        << "same site at different depth must be distinct nodes";

    const auto &nodes = prof.tree();
    EXPECT_EQ(nodes[mem].calls, 3u);
    EXPECT_EQ(nodes[md].calls, 3u);
    EXPECT_EQ(nodes[svc].calls, 3u);
    EXPECT_EQ(nodes[noc_deep].calls, 3u);
    EXPECT_EQ(nodes[noc_top].calls, 1u);

    // Inclusive time is monotone along the parent chain, and self
    // time never exceeds inclusive.
    EXPECT_GE(nodes[mem].ns, nodes[md].ns + nodes[svc].ns);
    EXPECT_LE(prof.selfNs(mem), nodes[mem].ns);
    EXPECT_GE(prof.attributedNs(), nodes[mem].ns);
}

TEST(SelfProfiler, ExceptionUnwindPopsFrames)
{
    SelfProfiler prof;
    SelfProfAttach attach(&prof);
    try {
        ProfScope outer(ProfSite::MemAccess);
        ProfScope inner(ProfSite::FetchMaster);
        throw std::runtime_error("boom");
    } catch (const std::runtime_error &) {
    }
    EXPECT_TRUE(prof.stackEmpty())
        << "RAII unwind must close every open frame";
    const int mem = findNode(prof, ProfSite::MemAccess, -1);
    ASSERT_GE(mem, 0);
    EXPECT_EQ(prof.tree()[mem].calls, 1u);
}

TEST(SelfProfiler, PhaseResetZeroesButKeepsStructure)
{
    SelfProfiler prof;
    SelfProfAttach attach(&prof);
    {
        ProfScope outer(ProfSite::MemAccess);
        ProfScope inner(ProfSite::MdLookup);
    }
    const std::size_t shape = prof.tree().size();
    prof.phaseReset();
    ASSERT_EQ(prof.tree().size(), shape);
    for (const auto &n : prof.tree()) {
        EXPECT_EQ(n.ns, 0u);
        EXPECT_EQ(n.calls, 0u);
    }
    // Re-entering after the reset reuses the same nodes.
    {
        ProfScope outer(ProfSite::MemAccess);
    }
    EXPECT_EQ(prof.tree().size(), shape);
    EXPECT_EQ(prof.tree()[findNode(prof, ProfSite::MemAccess, -1)].calls,
              1u);
}

TEST(SelfProfiler, ThreadLocalAttachmentIsolation)
{
    SelfProfiler main_prof;
    SelfProfAttach attach(&main_prof);

    SelfProfiler worker_prof;
    std::thread worker([&worker_prof] {
        // A fresh thread starts detached regardless of the spawning
        // thread's attachment.
        EXPECT_EQ(obs::activeSelfProf, nullptr);
        SelfProfAttach worker_attach(&worker_prof);
        ProfScope scope(ProfSite::Workload);
    });
    worker.join();

    {
        ProfScope scope(ProfSite::Sched);
    }
    EXPECT_GE(findNode(main_prof, ProfSite::Sched, -1), 0);
    EXPECT_LT(findNode(main_prof, ProfSite::Workload, -1), 0)
        << "worker activity must not leak into this thread's profiler";
    EXPECT_GE(findNode(worker_prof, ProfSite::Workload, -1), 0);
    EXPECT_LT(findNode(worker_prof, ProfSite::Sched, -1), 0);
}

TEST(SelfProfiler, AttachRestoresPreviousOnScopeExit)
{
    SelfProfiler outer_prof, inner_prof;
    SelfProfAttach outer(&outer_prof);
    {
        SelfProfAttach inner(&inner_prof);
        EXPECT_EQ(obs::activeSelfProf, &inner_prof);
        // Null attach (disabled run inside a profiled context) keeps
        // the current profiler, mirroring RunOptions.selfprof=null.
        SelfProfAttach noop(nullptr);
        EXPECT_EQ(obs::activeSelfProf, &inner_prof);
    }
    EXPECT_EQ(obs::activeSelfProf, &outer_prof);
}

TEST(SelfProfiler, DisabledScopeIsBranchNotClockRead)
{
    ASSERT_EQ(obs::activeSelfProf, nullptr);
    // 10M disabled scopes around a trivial volatile op. A steady_clock
    // read pair costs ~40ns, so if the disabled path ever grows a
    // clock read this blows past the bound by an order of magnitude;
    // the generous ceiling keeps loaded CI machines flake-free.
    constexpr int kIters = 10'000'000;
    volatile std::uint64_t sink = 0;
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < kIters; ++i) {
        ProfScope scope(ProfSite::NocSend);
        sink = sink + 1;
    }
    const auto t1 = std::chrono::steady_clock::now();
    const double ns_per =
        std::chrono::duration<double, std::nano>(t1 - t0).count() /
        kIters;
    EXPECT_LT(ns_per, 15.0)
        << "disabled ProfScope must stay ~a null check, measured "
        << ns_per << " ns per scope";
}

TEST(SelfProfiler, RealRunCoverageAtLeast90Percent)
{
    WorkloadParams p;
    p.instructionsPerCore = 60'000;
    p.sharedFootprint = 64 * 1024;
    p.sharedFraction = 0.3;
    p.seed = 7;
    const NamedWorkload wl{"sptest", "coverage", p};

    SweepOptions sopts;
    auto system = makeSystem(ConfigKind::D2mNsR, sopts.baseParams);
    auto streams = makeStreams(wl, system->params().numNodes,
                               system->params().lineSize,
                               p.instructionsPerCore + 5'000);
    SelfProfiler prof;
    RunOptions ropts;
    ropts.warmupInstsPerCore = 5'000;
    ropts.selfprof = &prof;
    const RunResult run = runMulticore(*system, streams, ropts);

    ASSERT_GT(run.measureWallSec, 0.0);
    const double attributed = prof.attributedNs() / 1e9;
    const double coverage = attributed / run.measureWallSec;
    EXPECT_GE(coverage, 0.90)
        << "attributed " << attributed << "s of " << run.measureWallSec
        << "s measured";
    EXPECT_LE(coverage, 1.05)
        << "attributed time cannot exceed the measured phase";

    // The unattributed remainder is explicit in the JSON section.
    const std::string wall = prof.wallJson(run.measureWallSec);
    EXPECT_NE(wall.find("\"unattributed_sec\":"), std::string::npos);
    EXPECT_NE(wall.find("\"coverage_pct\":"), std::string::npos);
    EXPECT_NE(wall.find("\"site\":\"kernel\""), std::string::npos);
}

} // namespace
} // namespace d2m
