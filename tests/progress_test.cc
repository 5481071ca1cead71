/**
 * @file
 * Campaign progress-stream tests (DESIGN.md §13): the JSONL records a
 * sweep emits to D2M_PROGRESS_JSON must follow the documented schema,
 * count every cell exactly once, and end with a "final":true record
 * that reconciles with the sweep outcome.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "harness/progress.hh"
#include "harness/runner.hh"
#include "obs/json.hh"
#include "workload/suites.hh"

namespace d2m
{
namespace
{

std::vector<NamedWorkload>
tinyWorkloads(int n)
{
    WorkloadParams p;
    p.instructionsPerCore = 1'000;
    p.sharedFootprint = 32 * 1024;
    p.sharedFraction = 0.3;
    std::vector<NamedWorkload> v;
    for (int i = 0; i < n; ++i) {
        p.seed = 40 + i;
        v.push_back({"ptest", "wl" + std::to_string(i), p});
    }
    return v;
}

std::vector<json::Value>
readRecords(const std::string &path)
{
    std::ifstream in(path);
    std::vector<json::Value> recs;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        json::Value v;
        std::string err;
        EXPECT_TRUE(json::parse(line, v, err))
            << err << " in: " << line;
        recs.push_back(std::move(v));
    }
    return recs;
}

TEST(CampaignProgress, DisabledWithoutSink)
{
    ::unsetenv("D2M_PROGRESS_JSON");
    CampaignProgress::Config cfg = CampaignProgress::fromEnv(false);
    EXPECT_TRUE(cfg.jsonPath.empty());
    EXPECT_FALSE(cfg.tty);
    EXPECT_EQ(CampaignProgress::make(cfg, {}), nullptr)
        << "no sink -> null reporter, callers skip all bookkeeping";
}

TEST(CampaignProgress, SweepEmitsSchemaConformingRecords)
{
    const std::string path =
        testing::TempDir() + "progress_stream.jsonl";
    std::remove(path.c_str());
    ::setenv("D2M_PROGRESS_JSON", path.c_str(), 1);
    ::unsetenv("D2M_STORE_DIR");

    const std::vector<ConfigKind> configs = {ConfigKind::Base2L,
                                             ConfigKind::D2mNsR};
    const auto workloads = tinyWorkloads(2);
    SweepOptions opts;
    opts.verbose = false;
    opts.warmupInstsPerCore = 200;
    opts.jobs = 2;
    opts.runTimeoutMs = 0;
    opts.runRetries = 0;
    runSweep(configs, workloads, opts);
    ::unsetenv("D2M_PROGRESS_JSON");

    const auto recs = readRecords(path);
    const std::size_t total = configs.size() * workloads.size();
    ASSERT_GE(recs.size(), total + 2)
        << "initial + one per completion + final";

    std::uint64_t lastDone = 0;
    for (const auto &r : recs) {
        ASSERT_TRUE(r.isObject());
        // Every documented field is present on every record.
        for (const char *k :
             {"t", "elapsed_sec", "total", "done", "running", "ok",
              "failed", "timeout", "abandoned", "from_store", "retries",
              "kips", "eta_sec"}) {
            EXPECT_FALSE(r[k].isNull()) << "missing field " << k;
        }
        EXPECT_TRUE(r["cells"].isArray());
        EXPECT_EQ(static_cast<std::size_t>(r["total"].asNumber()),
                  total);
        const auto done = static_cast<std::uint64_t>(
            r["done"].asNumber());
        EXPECT_GE(done, lastDone) << "done must be monotonic";
        lastDone = done;
        for (const auto &c : r["cells"].array) {
            EXPECT_FALSE(c["suite"].isNull());
            EXPECT_FALSE(c["benchmark"].isNull());
            EXPECT_FALSE(c["config"].isNull());
            EXPECT_FALSE(c["insts"].isNull());
        }
        if (!r["finished"].isNull()) {
            EXPECT_EQ(r["finished"]["status"].asString(), "ok");
            EXPECT_EQ(r["finished"]["attempts"].asNumber(), 1.0);
            EXPECT_EQ(r["finished"]["suite"].asString(), "ptest");
        }
    }

    // First record: campaign start, nothing done or running.
    EXPECT_EQ(recs.front()["done"].asNumber(), 0.0);
    EXPECT_EQ(recs.front()["running"].asNumber(), 0.0);
    EXPECT_FALSE(recs.front()["final"].boolean);

    // Last record: final, fully reconciled with the sweep outcome.
    const auto &last = recs.back();
    EXPECT_TRUE(last["final"].boolean);
    EXPECT_EQ(static_cast<std::size_t>(last["done"].asNumber()), total);
    EXPECT_EQ(static_cast<std::size_t>(last["ok"].asNumber()), total);
    EXPECT_EQ(last["running"].asNumber(), 0.0);
    EXPECT_EQ(last["failed"].asNumber(), 0.0);

    // Exactly one completion record per cell.
    std::size_t finished = 0;
    for (const auto &r : recs)
        finished += r["finished"].isNull() ? 0 : 1;
    EXPECT_EQ(finished, total);

    std::remove(path.c_str());
}

TEST(CampaignProgress, AppendModeAccumulatesAcrossSweeps)
{
    // A killed-and-resumed campaign reopens the same file; records
    // from both processes must survive as one continuous history.
    const std::string path =
        testing::TempDir() + "progress_append.jsonl";
    std::remove(path.c_str());
    ::setenv("D2M_PROGRESS_JSON", path.c_str(), 1);

    const std::vector<ConfigKind> configs = {ConfigKind::Base2L};
    const auto workloads = tinyWorkloads(1);
    SweepOptions opts;
    opts.verbose = false;
    opts.warmupInstsPerCore = 200;
    opts.jobs = 1;
    opts.runTimeoutMs = 0;
    opts.runRetries = 0;
    runSweep(configs, workloads, opts);
    const std::size_t afterFirst = readRecords(path).size();
    runSweep(configs, workloads, opts);
    ::unsetenv("D2M_PROGRESS_JSON");

    const auto recs = readRecords(path);
    EXPECT_GT(afterFirst, 0u);
    EXPECT_GE(recs.size(), 2 * afterFirst)
        << "second sweep must append, not truncate";
    std::remove(path.c_str());
}

} // namespace
} // namespace d2m
