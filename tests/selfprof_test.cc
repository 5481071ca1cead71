/**
 * @file
 * Simulation self-profiler tests (DESIGN.md §14):
 *
 *  - the site register: push/pop, restore on exception unwind, and
 *    one word per thread,
 *  - the sampler: phaseReset() drops samples, stop() is idempotent,
 *    and sample shares follow the time spent in each scope,
 *  - the cost guard: a ProfScope must stay a few moves, not a clock
 *    read,
 *  - end-to-end coverage: on a real run >= 90% of the measured-phase
 *    samples fall inside scopes.
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
using obs::SelfProfiler;
using Clock = std::chrono::steady_clock;

std::string
currentPath()
{
    return obs::profPathName(obs::sitePath);
}

void
spinFor(std::chrono::microseconds d)
{
    const auto end = Clock::now() + d;
    while (Clock::now() < end) {
    }
}

/** Busy-wait until @p prof holds @p n samples (10 s safety cap). */
void
spinUntilSamples(const SelfProfiler &prof, std::uint64_t n)
{
    const auto deadline = Clock::now() + std::chrono::seconds(10);
    while (prof.samples() < n && Clock::now() < deadline)
        spinFor(std::chrono::microseconds(200));
    ASSERT_GE(prof.samples(), n) << "sampler never ran";
}

/** Self samples of the node for @p site directly under @p parent. */
std::uint64_t
selfSamples(const std::vector<SelfProfiler::Node> &tree, ProfSite site,
            std::int32_t parent = -1)
{
    for (const auto &n : tree) {
        if (n.site == site && n.parent == parent)
            return n.selfSamples;
    }
    return 0;
}

bool
hasSite(const std::vector<SelfProfiler::Node> &tree, ProfSite site)
{
    for (const auto &n : tree) {
        if (n.site == site)
            return true;
    }
    return false;
}

TEST(SiteRegister, PushPopAndRestoreOnUnwind)
{
    ASSERT_EQ(obs::sitePath, 0u);
    {
        ProfScope outer(ProfSite::MemAccess);
        EXPECT_EQ(currentPath(), "mem_access");
        {
            ProfScope inner(ProfSite::MdLookup);
            ProfScope deeper(ProfSite::NocSend);
            EXPECT_EQ(currentPath(), "mem_access/md_lookup/noc_send");
        }
        EXPECT_EQ(currentPath(), "mem_access");
    }
    EXPECT_EQ(obs::sitePath, 0u);

    try {
        ProfScope outer(ProfSite::Kernel);
        ProfScope inner(ProfSite::FetchMaster);
        EXPECT_EQ(currentPath(), "kernel/fetch_master");
        throw std::runtime_error("boom");
    } catch (const std::runtime_error &) {
    }
    EXPECT_EQ(obs::sitePath, 0u)
        << "RAII unwind must restore the word";

    // The word holds twelve levels, every site enum value included.
    {
        ProfScope s0(ProfSite::Kernel), s1(ProfSite::Snapshot),
            s2(ProfSite::Invariants), s3(ProfSite::ValueCheck),
            s4(ProfSite::Memory), s5(ProfSite::NocSend),
            s6(ProfSite::DirProtocol), s7(ProfSite::Invalidate),
            s8(ProfSite::CohUpgrade), s9(ProfSite::FetchMaster),
            s10(ProfSite::ServiceLine), s11(ProfSite::Md3);
        EXPECT_EQ(currentPath(),
                  "kernel/snapshot/invariants/value_check/memory/"
                  "noc_send/dir_protocol/invalidate/coh_upgrade/"
                  "fetch_master/service_line/md3");
    }
    EXPECT_EQ(obs::sitePath, 0u);
}

TEST(SiteRegister, OneWordPerThread)
{
    SelfProfiler prof;
    ProfScope mine(ProfSite::Sched);
    const std::uint64_t main_path = obs::sitePath;

    std::uint64_t fresh = ~0ull;
    std::string inside;
    std::thread worker([&] {
        fresh = obs::sitePath;
        ProfScope scope(ProfSite::Workload);
        inside = currentPath();
        spinFor(std::chrono::milliseconds(20));
    });
    worker.join();
    prof.stop();

    EXPECT_EQ(fresh, 0u) << "a new thread starts with no open site";
    EXPECT_EQ(inside, "workload");
    EXPECT_EQ(obs::sitePath, main_path);
    const auto tree = prof.tree();
    EXPECT_TRUE(hasSite(tree, ProfSite::Sched));
    EXPECT_FALSE(hasSite(tree, ProfSite::Workload))
        << "the sampler reads only the thread that built it";
}

TEST(SelfProfiler, PhaseResetDropsSamples)
{
    SelfProfiler prof;
    {
        ProfScope warm(ProfSite::Md3);
        spinUntilSamples(prof, 5);
    }
    prof.phaseReset();
    {
        ProfScope measured(ProfSite::Memory);
        spinUntilSamples(prof, 5);
    }
    prof.stop();
    const auto tree = prof.tree();
    EXPECT_FALSE(hasSite(tree, ProfSite::Md3))
        << "a sample is taken under the lock, so none survives reset";
    EXPECT_GT(selfSamples(tree, ProfSite::Memory), 0u);
}

TEST(SelfProfiler, StopIsIdempotent)
{
    SelfProfiler prof;
    {
        ProfScope scope(ProfSite::Kernel);
        spinUntilSamples(prof, 3);
    }
    prof.stop();
    const std::uint64_t n = prof.samples();
    prof.stop();
    {
        ProfScope scope(ProfSite::Kernel);
        spinFor(std::chrono::milliseconds(5));
    }
    EXPECT_EQ(prof.samples(), n) << "no sample after stop()";
    // The destructor stops a third time.
}

TEST(SelfProfiler, SharesFollowTimeInScope)
{
    // 10 ms vs 5 ms per iteration. A preempted spin overruns its
    // target, so the samples are compared with the time each scope
    // was really open (a ratio of 2 on an idle host).
    SelfProfiler prof;
    std::chrono::duration<double> slow_time{0}, fast_time{0};
    for (int i = 0; i < 20; ++i) {
        auto t0 = Clock::now();
        {
            ProfScope slow(ProfSite::Md3);
            spinFor(std::chrono::milliseconds(10));
        }
        auto t1 = Clock::now();
        {
            ProfScope fast(ProfSite::ServiceLine);
            spinFor(std::chrono::milliseconds(5));
        }
        slow_time += t1 - t0;
        fast_time += Clock::now() - t1;
    }
    prof.stop();
    const auto tree = prof.tree();
    const double slow = selfSamples(tree, ProfSite::Md3);
    const double fast = selfSamples(tree, ProfSite::ServiceLine);
    ASSERT_GT(fast, 0.0);
    EXPECT_NEAR(slow / fast, slow_time / fast_time, 0.5)
        << slow << " vs " << fast << " samples over "
        << slow_time.count() << " s vs " << fast_time.count() << " s";
}

TEST(ProfScope, CostsAFewMoves)
{
#ifdef __SANITIZE_THREAD__
    GTEST_SKIP() << "TSan turns every atomic access into a runtime call";
#endif
    // 10M scopes around a trivial volatile op. A steady_clock read
    // pair costs ~40ns, so a scope that grows a clock read blows past
    // the bound by an order of magnitude; the generous ceiling keeps
    // loaded CI machines flake-free.
    constexpr int kIters = 10'000'000;
    volatile std::uint64_t sink = 0;
    const auto t0 = Clock::now();
    for (int i = 0; i < kIters; ++i) {
        ProfScope scope(ProfSite::NocSend);
        sink = sink + 1;
    }
    const auto t1 = Clock::now();
    const double ns_per =
        std::chrono::duration<double, std::nano>(t1 - t0).count() /
        kIters;
    EXPECT_LT(ns_per, 15.0)
        << "ProfScope must stay a load and two stores, measured "
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

    const std::uint64_t total = prof.samples();
    ASSERT_GE(total, 20u) << "too few samples to judge coverage";
    spinFor(std::chrono::milliseconds(2));
    EXPECT_EQ(prof.samples(), total) << "runMulticore must stop() it";

    const auto tree = prof.tree();
    std::uint64_t attributed = 0;
    for (std::size_t i = 0; i < tree.size(); ++i) {
        int depth = 1;
        for (std::int32_t up = tree[i].parent; up >= 0;
             up = tree[up].parent) {
            ++depth;
        }
        EXPECT_LE(depth, 12) << "path deeper than the word holds";
        if (tree[i].parent < 0) {
            EXPECT_EQ(tree[i].site, ProfSite::Kernel)
                << "every loop scope nests under the kernel root";
            attributed += tree[i].samples;
        }
    }
    const double coverage = static_cast<double>(attributed) / total;
    EXPECT_GE(coverage, 0.90)
        << attributed << " of " << total << " samples in scopes";

    // The unattributed remainder is explicit in the JSON section.
    const std::string wall = prof.wallJson(run.measureWallSec);
    EXPECT_NE(wall.find("\"unattributed_sec\":"), std::string::npos);
    EXPECT_NE(wall.find("\"coverage_pct\":"), std::string::npos);
    EXPECT_NE(wall.find("\"samples\":" + std::to_string(total)),
              std::string::npos);
    EXPECT_NE(wall.find("\"site\":\"kernel\""), std::string::npos);
}

} // namespace
} // namespace d2m
