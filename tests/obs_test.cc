/**
 * @file
 * Tests for the observability layer: the TraceSink ring buffer and its
 * JSONL output, the JSON stats visitor, the sim-rate profiler and the
 * rate-limited warning helpers. The reconcile tests run small
 * multicore simulations with tracing attached and match the trace's
 * message and protocol-event records against the Stats counters.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>

#include "common/logging.hh"
#include "common/stats.hh"
#include "cpu/multicore.hh"
#include "d2m/d2m_system.hh"
#include "harness/configs.hh"
#include "harness/results_json.hh"
#include "noc/message.hh"
#include "obs/json.hh"
#include "obs/profiler.hh"
#include "obs/trace.hh"
#include "test_util.hh"
#include "workload/suites.hh"

namespace d2m
{
namespace
{

// ---------------------------------------------------------------- trace

TEST(TraceSink, MemoryRingWrapsDroppingOldest)
{
    obs::TraceSink sink("", /*capacity=*/4);
    for (std::uint64_t i = 0; i < 6; ++i)
        sink.record({/*tick=*/i, obs::TraceKind::NocSend, 0, 8, 1, 0});
    EXPECT_EQ(sink.recorded(), 6u);
    EXPECT_EQ(sink.buffered(), 4u);
    EXPECT_EQ(sink.dropped(), 2u);
    const auto snap = sink.snapshot();
    ASSERT_EQ(snap.size(), 4u);
    EXPECT_EQ(snap.front().tick, 2u);  // oldest two dropped
    EXPECT_EQ(snap.back().tick, 5u);
}

TEST(TraceSink, FileFlushesOnFullAndProducesValidJsonl)
{
    const std::string path = test::tempPath("obs_test_sink.jsonl");
    {
        obs::TraceSink sink(path, /*capacity=*/4);
        for (std::uint64_t i = 0; i < 10; ++i) {
            sink.record({i, obs::TraceKind::AccessIssue,
                         static_cast<std::uint32_t>(i % 3), 0x40 + i,
                         i % 2, 0});
        }
        EXPECT_EQ(sink.dropped(), 0u);  // file mode never drops
        EXPECT_GE(sink.flushed(), 8u);  // two full rings already out
    }  // dtor flushes the remainder
    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::string line;
    std::size_t lines = 0;
    while (std::getline(in, line)) {
        ++lines;
        std::string err;
        EXPECT_TRUE(json::valid(line, err)) << line << ": " << err;
    }
    EXPECT_EQ(lines, 10u);
    std::remove(path.c_str());
}

TEST(TraceSink, JsonEncodingIsKindSpecific)
{
    json::Value v;
    std::string err;
    ASSERT_TRUE(json::parse(
        obs::traceToJson({7, obs::TraceKind::NocSend, 2, 72, 4,
                          static_cast<std::uint64_t>(MsgType::DataResp)}),
        v, err))
        << err;
    EXPECT_EQ(v["kind"].asString(), "noc_send");
    EXPECT_EQ(v["tick"].asNumber(), 7.0);
    EXPECT_EQ(v["src"].asNumber(), 2.0);
    EXPECT_EQ(v["dst"].asNumber(), 4.0);
    EXPECT_EQ(v["bytes"].asNumber(), 72.0);
    EXPECT_EQ(v["msg"].asString(), msgTypeName(MsgType::DataResp));

    ASSERT_TRUE(json::parse(
        obs::traceToJson({9, obs::TraceKind::RegionClass, 1, 0x100, 1, 0}),
        v, err));
    EXPECT_EQ(v["kind"].asString(), "region_class");
    EXPECT_EQ(v["region"].asNumber(), 256.0);
    EXPECT_EQ(v["shared"].asNumber(), 1.0);

    ASSERT_TRUE(json::parse(
        obs::traceToJson(
            {11, obs::TraceKind::ProtoEvent, 2, 0x40,
             static_cast<std::uint64_t>(obs::ProtoEvent::D4Scramble), 5}),
        v, err));
    EXPECT_EQ(v["kind"].asString(), "proto_event");
    EXPECT_EQ(v["node"].asNumber(), 2.0);
    EXPECT_EQ(v["addr"].asNumber(), 64.0);
    EXPECT_EQ(v["event"].asString(), "d4_scramble");
    EXPECT_EQ(v["scramble"].asNumber(), 5.0);
}

TEST(TraceSink, GlobalEventHelperStampsTick)
{
    obs::TraceSink sink("", 16);
    obs::TraceSink *old = obs::setGlobalSink(&sink);
    obs::setCurTick(1234);
    obs::traceEvent(obs::TraceKind::CohUpgrade, 3, 0x80, 'C');
    obs::setGlobalSink(old);
    const auto snap = sink.snapshot();
    ASSERT_EQ(snap.size(), 1u);
    EXPECT_EQ(snap[0].tick, 1234u);
    EXPECT_EQ(snap[0].node, 3u);
    // Detached again: recording is a no-op, not a crash.
    obs::traceEvent(obs::TraceKind::CohUpgrade, 3, 0x80, 'C');
    EXPECT_EQ(sink.recorded(), 1u);
}

// ----------------------------------------------------------- stats JSON

TEST(StatsJson, RoundTripsThroughParser)
{
    stats::StatGroup root("sys");
    stats::StatGroup child("noc", &root);
    stats::Counter a(&root, "accesses", "");
    stats::Counter b(&child, "messages", "");
    stats::Histogram2 lat(&root, "lat", "");
    a += 41;
    b += 3;
    lat.sample(10);
    lat.sample(20);

    std::ostringstream os;
    root.printJson(os);
    json::Value v;
    std::string err;
    ASSERT_TRUE(json::parse(os.str(), v, err)) << os.str() << ": " << err;
    EXPECT_EQ(v["accesses"].asNumber(), 41.0);
    EXPECT_EQ(v["noc"]["messages"].asNumber(), 3.0);
    EXPECT_DOUBLE_EQ(v["lat"]["mean"].asNumber(), 15.0);
    EXPECT_EQ(v["lat"]["samples"].asNumber(), 2.0);
    ASSERT_EQ(v["lat"]["buckets"].array.size(), 2u);
    EXPECT_EQ(v["lat"]["buckets"].array[0]["count"].asNumber(), 1.0);
}

TEST(StatsJson, OutputIsDeterministic)
{
    // Registration order differs; the printed order must not.
    auto build = [](bool swap_order) {
        auto root = std::make_unique<stats::StatGroup>("sys");
        auto za = std::make_unique<stats::Counter>(root.get(), "zebra", "");
        auto ab = std::make_unique<stats::Counter>(root.get(), "aard", "");
        if (swap_order)
            std::swap(za, ab);
        std::ostringstream os;
        root->printJson(os);
        return os.str();
    };
    const std::string a = build(false);
    EXPECT_EQ(a, build(true));
    // Sorted: "aard" prints before "zebra".
    EXPECT_LT(a.find("aard"), a.find("zebra"));
}

TEST(StatsJson, FloatsUseFixedPrecision)
{
    EXPECT_EQ(json::number(1.0 / 3.0), "0.333333");
    EXPECT_EQ(json::number(0.0), "0.000000");
    EXPECT_EQ(json::number(std::uint64_t{7}), "7");
}

TEST(StatsLifetime, StatDestroyedBeforeGroupIsDeregistered)
{
    stats::StatGroup root("sys");
    {
        stats::Counter tmp(&root, "transient", "");
        tmp += 5;
    }
    // The destroyed stat must not dangle in the group's JSON path.
    std::ostringstream js;
    root.printJson(js);
    EXPECT_EQ(js.str(), "{}");
    root.resetStats();  // must not touch freed memory either
}

TEST(StatsLifetime, GroupDestroyedBeforeStatIsSafe)
{
    auto root = std::make_unique<stats::StatGroup>("sys");
    stats::Counter c(root.get(), "orphaned", "");
    root.reset();  // group dies first; the stat must survive
    ++c;
    EXPECT_EQ(c.value(), 1u);
}

// ------------------------------------------------------------- profiler

TEST(Profiler, HeartbeatFiresOnBoundaries)
{
    obs::SimRateProfiler p(/*heartbeat_insts=*/1000);
    testing::internal::CaptureStderr();
    EXPECT_FALSE(p.maybeHeartbeat(500, 10));
    EXPECT_TRUE(p.maybeHeartbeat(1000, 20));
    EXPECT_FALSE(p.maybeHeartbeat(1500, 30));
    EXPECT_TRUE(p.maybeHeartbeat(5000, 40));  // catches up past 2000+
    testing::internal::GetCapturedStderr();
    EXPECT_EQ(p.heartbeatsFired(), 2u);
}

TEST(Profiler, DisabledHeartbeatNeverFires)
{
    obs::SimRateProfiler p(/*heartbeat_insts=*/0);
    EXPECT_FALSE(p.maybeHeartbeat(1'000'000, 0));
    EXPECT_EQ(p.heartbeatsFired(), 0u);
}

TEST(Profiler, FinishComputesNonNegativeRate)
{
    obs::SimRateProfiler p(0);
    p.phaseReset();
    p.finish(1'000'000);
    EXPECT_GE(p.kips(), 0.0);
    EXPECT_GE(p.warmupWallSec(), 0.0);
    EXPECT_GE(p.measureWallSec(), 0.0);
}

// ------------------------------------------------------------- warnings

TEST(Warnings, WarnOnceFiresOnce)
{
    testing::internal::CaptureStderr();
    for (int i = 0; i < 3; ++i)
        warn_once("only once %d", 1);
    const std::string err = testing::internal::GetCapturedStderr();
    EXPECT_NE(err.find("only once"), std::string::npos);
    EXPECT_EQ(err.find("only once", err.find("only once") + 1),
              std::string::npos);
}

// -------------------------------------------- trace <-> stats reconcile

WorkloadParams
tinyWorkload()
{
    WorkloadParams p;
    p.instructionsPerCore = 4'000;
    p.sharedFootprint = 64 * 1024;
    p.sharedFraction = 0.2;
    p.seed = 11;
    return p;
}

std::vector<std::unique_ptr<AccessStream>>
streamsFor(const WorkloadParams &p, unsigned cores)
{
    std::vector<std::unique_ptr<AccessStream>> v;
    for (unsigned c = 0; c < cores; ++c)
        v.push_back(std::make_unique<SyntheticStream>(p, c, 64));
    return v;
}

/** Count noc_send lines in @p path, all and after the last stats_reset. */
void
countNocSends(const std::string &path, std::uint64_t &total,
              std::uint64_t &after_reset)
{
    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    total = after_reset = 0;
    std::string line;
    while (std::getline(in, line)) {
        std::string err;
        json::Value v;
        ASSERT_TRUE(json::parse(line, v, err)) << line << ": " << err;
        const std::string &kind = v["kind"].asString();
        if (kind == "stats_reset")
            after_reset = 0;
        else if (kind == "noc_send") {
            ++total;
            ++after_reset;
        }
    }
}

TEST(TraceReconcile, NocSendRecordsMatchStatsCounters)
{
    const std::string path = test::tempPath("obs_test_reconcile.jsonl");
    auto *sink = new obs::TraceSink(path, 4096);
    obs::TraceSink *old = obs::setGlobalSink(sink);

    auto sys = makeSystem(ConfigKind::D2mNsR);
    auto streams = streamsFor(tinyWorkload(), sys->params().numNodes);
    RunOptions opts;
    opts.warmupInstsPerCore = 2'000;
    const RunResult r = runMulticore(*sys, streams, opts);
    EXPECT_EQ(r.valueErrors, 0u);

    obs::setGlobalSink(old);
    delete sink;  // flushes the tail

    std::uint64_t total = 0, after_reset = 0;
    countNocSends(path, total, after_reset);
    // The counters were reset at the warmup boundary, where the trace
    // carries a stats_reset marker: post-marker records must match the
    // Stats counter exactly, and warmup traffic must exist.
    EXPECT_EQ(after_reset, sys->noc().totalMessages.value());
    EXPECT_GT(total, after_reset);
    std::remove(path.c_str());
}

/** Count proto_event lines in @p path after the last stats_reset,
 * keyed by event name. */
std::map<std::string, std::uint64_t>
countProtoEvents(const std::string &path)
{
    std::map<std::string, std::uint64_t> counts;
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << path;
    std::string line;
    while (std::getline(in, line)) {
        std::string err;
        json::Value v;
        EXPECT_TRUE(json::parse(line, v, err)) << line << ": " << err;
        const std::string &kind = v["kind"].asString();
        if (kind == "stats_reset")
            counts.clear();
        else if (kind == "proto_event")
            ++counts[v["event"].asString()];
    }
    return counts;
}

TEST(TraceReconcile, ProtoEventsMatchEventCounters)
{
    // md1_hit records alone would wrap an in-memory ring: use a file.
    const std::string path = test::tempPath("obs_test_proto_events.jsonl");
    auto *sink = new obs::TraceSink(path, 4096);
    obs::TraceSink *old = obs::setGlobalSink(sink);

    // Tiny metadata stores and LLC (as in TinyStructureSweep) make
    // every counted event fire, evictions included.
    SystemParams base;
    base.md1Entries = 16;
    base.md2Entries = 32;
    base.md3Entries = 64;
    base.llc.sizeBytes = 128 * 1024;
    auto sys = makeSystem(ConfigKind::D2mNsR, base);
    auto streams = streamsFor(tinyWorkload(), sys->params().numNodes);
    RunOptions opts;
    opts.warmupInstsPerCore = 2'000;
    const RunResult r = runMulticore(*sys, streams, opts);
    EXPECT_EQ(r.valueErrors, 0u);

    obs::setGlobalSink(old);
    delete sink;  // flushes the tail

    const auto counts = countProtoEvents(path);
    const D2mEvents &ev = dynamic_cast<const D2mSystem &>(*sys).events();
    const std::pair<const char *, std::uint64_t> expected[] = {
        {"md1_hit", ev.md1Hits.value()},
        {"md2_hit", ev.md2Hits.value()},
        {"md3_lookup", ev.md3Lookups.value()},
        {"d4_scramble", ev.d4.value()},
        {"md2_prune", ev.md2Prunes.value()},
        {"md2_spill", ev.md2Spills.value()},
        {"md3_evict", ev.md3Evictions.value()},
        {"case_e", ev.e.value()},
        {"case_f", ev.f.value()},
        {"replicate",
         ev.replicationsInst.value() + ev.replicationsData.value()},
    };
    for (const auto &[event, counter] : expected) {
        const auto it = counts.find(event);
        EXPECT_EQ(it == counts.end() ? 0 : it->second, counter) << event;
        EXPECT_GT(counter, 0u) << event;
    }
    std::remove(path.c_str());
}

// --------------------------------------------------- crash-time flush

/** Read @p path, requiring every line to be valid JSON. */
std::size_t
countJsonlLines(const std::string &path)
{
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << path;
    std::string line;
    std::size_t lines = 0;
    while (std::getline(in, line)) {
        ++lines;
        std::string err;
        EXPECT_TRUE(json::valid(line, err)) << line << ": " << err;
    }
    return lines;
}

TEST(TraceCrashFlushDeathTest, FatalFlushesBufferedRecords)
{
    const std::string path = test::tempPath("obs_test_crash_fatal.jsonl");
    std::remove(path.c_str());
    // The sink is created inside the death-test child so only that
    // process owns the file; the buffered records would be lost on
    // abnormal exit without the crash hook in fatal().
    EXPECT_EXIT(
        {
            auto *sink = new obs::TraceSink(path, /*capacity=*/4096);
            obs::setGlobalSink(sink);
            obs::setCurTick(99);
            for (int i = 0; i < 5; ++i)
                obs::traceEvent(obs::TraceKind::NocSend, 1, 64, 2);
            fatal("boom with %d records buffered", 5);
        },
        testing::ExitedWithCode(1), "boom with 5 records buffered");
    EXPECT_EQ(countJsonlLines(path), 5u);
    std::remove(path.c_str());
}

TEST(TraceCrashFlushDeathTest, AtexitFlushesOnPlainExit)
{
    const std::string path = test::tempPath("obs_test_crash_exit.jsonl");
    std::remove(path.c_str());
    // exit() skips the sink's destructor (it is heap-allocated and
    // never freed here); the std::atexit hook must flush instead.
    EXPECT_EXIT(
        {
            auto *sink = new obs::TraceSink(path, /*capacity=*/4096);
            obs::setGlobalSink(sink);
            obs::setCurTick(7);
            for (int i = 0; i < 3; ++i)
                obs::traceEvent(obs::TraceKind::CohUpgrade, 0, 0x40, 'B');
            std::exit(0);
        },
        testing::ExitedWithCode(0), "");
    EXPECT_EQ(countJsonlLines(path), 3u);
    std::remove(path.c_str());
}

TEST(ResultsJson, MetricsRowIsValidJson)
{
    Metrics m;
    m.config = "D2M-NS-R";
    m.suite = "parallel";
    m.benchmark = "fft";
    m.instructions = 1000;
    m.ipc = 1.0 / 3.0;
    m.simKips = 250.5;
    json::Value v;
    std::string err;
    ASSERT_TRUE(json::parse(metricsToJson(m), v, err)) << err;
    EXPECT_EQ(v["config"].asString(), "D2M-NS-R");
    EXPECT_EQ(v["instructions"].asNumber(), 1000.0);
    EXPECT_NEAR(v["ipc"].asNumber(), 1.0 / 3.0, 1e-6);
    EXPECT_NEAR(v["sim_kips"].asNumber(), 250.5, 1e-6);
}

} // namespace
} // namespace d2m
