/**
 * @file
 * Campaign fault isolation: a run that fatal()s or drains must be
 * recorded as failed/abandoned while the rest of the grid completes,
 * and each cell runs exactly once (DESIGN.md §12).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <csignal>

#include "common/logging.hh"
#include "harness/runner.hh"

namespace d2m
{
namespace
{

std::vector<NamedWorkload>
smallWorkloads()
{
    WorkloadParams p;
    p.instructionsPerCore = 1'500;
    std::vector<NamedWorkload> v;
    for (int i = 0; i < 3; ++i) {
        p.seed = 100 + i;
        v.push_back({"ctest", "wl" + std::to_string(i), p});
    }
    return v;
}

SweepOptions
campaignOptions()
{
    SweepOptions opts;
    opts.verbose = false;
    opts.warmupInstsPerCore = 500;
    opts.jobs = 1;
    return opts;
}

const std::vector<ConfigKind> kTwoConfigs = {ConfigKind::Base2L,
                                             ConfigKind::D2mFs};

TEST(AbortCapture, ConvertsFatalToException)
{
    ScopedAbortCapture capture;
    ASSERT_TRUE(ScopedAbortCapture::active());
    bool caught = false;
    try {
        fatal("deliberate test failure %d", 42);
    } catch (const RunAbortError &e) {
        caught = true;
        EXPECT_NE(std::string(e.what()).find("deliberate test failure 42"),
                  std::string::npos);
        EXPECT_FALSE(e.isPanic());
    }
    EXPECT_TRUE(caught);
}

TEST(AbortCapture, ConvertsPanicToException)
{
    ScopedAbortCapture capture;
    EXPECT_THROW(panic("test panic"), RunAbortError);
    // Depth unwinds with the scope.
}

TEST(AbortCapture, InactiveOutsideScope)
{
    EXPECT_FALSE(ScopedAbortCapture::active());
    {
        ScopedAbortCapture outer;
        ScopedAbortCapture inner;
        EXPECT_TRUE(ScopedAbortCapture::active());
    }
    EXPECT_FALSE(ScopedAbortCapture::active());
}

TEST(CampaignIsolation, FatalRunFailsAloneGridCompletes)
{
    std::atomic<unsigned> calls{0};
    auto opts = campaignOptions();
    opts.preRunHook = [&](const NamedWorkload &wl, unsigned attempt) {
        EXPECT_EQ(attempt, 0u);
        calls.fetch_add(1);
        if (wl.name == "wl1")
            fatal("injected failure in %s", wl.name.c_str());
    };
    const auto workloads = smallWorkloads();
    const auto rows = runSweep(kTwoConfigs, workloads, opts);
    ASSERT_EQ(rows.size(), 6u);
    std::size_t failed = 0;
    for (const auto &m : rows) {
        if (m.benchmark == "wl1") {
            EXPECT_EQ(m.status, "failed");
            EXPECT_NE(m.errorMessage.find("injected failure"),
                      std::string::npos);
            EXPECT_EQ(m.instructions, 0u) << "failure rows zero-filled";
            ++failed;
        } else {
            EXPECT_EQ(m.status, "ok");
            EXPECT_GT(m.instructions, 0u);
        }
    }
    EXPECT_EQ(failed, kTwoConfigs.size());
    EXPECT_EQ(calls.load(), 6u) << "each cell runs once, failed or not";

    const SweepOutcome &o = lastSweepOutcome();
    EXPECT_EQ(o.total, 6u);
    EXPECT_EQ(o.executed, 6u);
    EXPECT_EQ(o.ok, 4u);
    EXPECT_EQ(o.failed, 2u);
    EXPECT_FALSE(o.interrupted);
    EXPECT_EQ(campaignExitCode(o), kCampaignExitFailed);
}

TEST(CampaignIsolation, ParallelGridSurvivesFatalRun)
{
    auto opts = campaignOptions();
    opts.jobs = 4;
    opts.preRunHook = [](const NamedWorkload &wl, unsigned) {
        if (wl.name == "wl0")
            fatal("injected parallel failure");
    };
    const auto rows = runSweep(kTwoConfigs, smallWorkloads(), opts);
    ASSERT_EQ(rows.size(), 6u);
    for (const auto &m : rows)
        EXPECT_EQ(m.status, m.benchmark == "wl0" ? "failed" : "ok");
    EXPECT_EQ(lastSweepOutcome().failed, 2u);
}

TEST(CampaignDeathTest, RetiredOptionsMustStayZero)
{
    auto opts = campaignOptions();
    opts.runRetries = 1;
    EXPECT_EXIT(runSweep(kTwoConfigs, smallWorkloads(), opts),
                testing::ExitedWithCode(1), "runRetries=1: .* must be 0");
    opts.runRetries = 0;
    opts.runTimeoutMs = 50;
    EXPECT_EXIT(runSweep(kTwoConfigs, smallWorkloads(), opts),
                testing::ExitedWithCode(1),
                "runTimeoutMs=50, runRetries=0: .* must be 0");
}

TEST(CampaignDrain, SigintAbandonsRemainingCells)
{
    std::atomic<unsigned> started{0};
    auto opts = campaignOptions();
    opts.preRunHook = [&](const NamedWorkload &, unsigned) {
        if (started.fetch_add(1) + 1 == 2)
            std::raise(SIGINT);  // caught by the sweep's drain handler
    };
    const auto rows = runSweep(kTwoConfigs, smallWorkloads(), opts);
    const SweepOutcome o = lastSweepOutcome();
    resetDrain();  // don't poison later tests in this binary
    ASSERT_EQ(rows.size(), 6u);
    EXPECT_TRUE(o.interrupted);
    // Cell 1 completed before the signal. Cell 2, in flight, stops at
    // its first access; the four after it never start.
    EXPECT_EQ(o.ok, 1u);
    EXPECT_EQ(o.abandoned, 5u);
    EXPECT_EQ(o.executed, 2u);
    EXPECT_EQ(started.load(), 2u);
    EXPECT_EQ(campaignExitCode(o), kCampaignExitPartial);
    for (std::size_t i = 0; i < rows.size(); ++i) {
        EXPECT_EQ(rows[i].status, i == 0 ? "ok" : "abandoned") << i;
        if (i > 0) {
            EXPECT_EQ(rows[i].instructions, 0u);
        }
    }
}

TEST(CampaignDrain, ParallelSigintStopsInFlightCells)
{
    // Every pool thread reads the one drain counter; the thread that
    // raises the signal is in flight, so its cell always stops.
    std::atomic<unsigned> started{0};
    auto opts = campaignOptions();
    opts.jobs = 3;
    opts.preRunHook = [&](const NamedWorkload &, unsigned) {
        if (started.fetch_add(1) + 1 == 3)
            std::raise(SIGINT);
    };
    const auto rows = runSweep(kTwoConfigs, smallWorkloads(), opts);
    const SweepOutcome o = lastSweepOutcome();
    resetDrain();
    ASSERT_EQ(rows.size(), 6u);
    EXPECT_TRUE(o.interrupted);
    EXPECT_EQ(o.failed, 0u);
    EXPECT_EQ(o.ok + o.abandoned, 6u);
    EXPECT_GE(o.abandoned, 1u);
    for (const auto &m : rows) {
        if (m.status == "abandoned") {
            EXPECT_EQ(m.instructions, 0u);
        }
    }
}

} // namespace
} // namespace d2m
