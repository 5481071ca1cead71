/**
 * @file
 * Tests for the Chrome trace_event exporter (obs/chrome_trace.hh):
 * the kind -> event mapping, per-track timestamp monotonicity, error
 * reporting on malformed input, forward compatibility with unknown
 * record kinds, and an end-to-end multicore run whose converted
 * timeline is schema-validated the way chrome://tracing / Perfetto
 * load it.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>

#include "cpu/multicore.hh"
#include "harness/configs.hh"
#include "noc/message.hh"
#include "obs/chrome_trace.hh"
#include "obs/json.hh"
#include "obs/selfprof.hh"
#include "obs/trace.hh"
#include "test_util.hh"
#include "workload/suites.hh"

namespace d2m
{
namespace
{

std::string
convert(const std::string &jsonl)
{
    std::istringstream in(jsonl);
    std::ostringstream out;
    std::string err;
    EXPECT_TRUE(obs::chromeTraceFromJsonl(in, out, err)) << err;
    return out.str();
}

json::Value
parseDoc(const std::string &text)
{
    json::Value v;
    std::string err;
    EXPECT_TRUE(json::parse(text, v, err)) << text << ": " << err;
    return v;
}

/**
 * Assert the Chrome/Perfetto schema per event: required keys, a known
 * phase, and per-(pid, tid) monotonically non-decreasing timestamps.
 */
void
validateSchema(const json::Value &doc)
{
    ASSERT_TRUE(doc.isObject());
    const json::Value &events = doc["traceEvents"];
    ASSERT_TRUE(events.isArray());
    std::map<std::pair<double, double>, double> last_ts;
    for (const json::Value &e : events.array) {
        ASSERT_TRUE(e.isObject());
        const std::string &ph = e["ph"].asString();
        ASSERT_TRUE(ph == "X" || ph == "i" || ph == "C" || ph == "M")
            << ph;
        EXPECT_FALSE(e["name"].asString().empty());
        EXPECT_FALSE(e["pid"].isNull());
        EXPECT_FALSE(e["tid"].isNull());
        EXPECT_FALSE(e["ts"].isNull());
        if (ph == "X") {
            EXPECT_FALSE(e["dur"].isNull());
        }
        if (ph == "M")
            continue;  // metadata pseudo-events all carry ts 0
        const auto key =
            std::make_pair(e["pid"].asNumber(), e["tid"].asNumber());
        const auto it = last_ts.find(key);
        if (it != last_ts.end()) {
            EXPECT_GE(e["ts"].asNumber(), it->second);
        }
        last_ts[key] = e["ts"].asNumber();
    }
}

TEST(ChromeTrace, MapsAccessesToSlicesAndMarksToInstants)
{
    std::string jsonl;
    jsonl += obs::traceToJson({100, obs::TraceKind::AccessComplete, 1,
                               0x40, 57, 1}) + "\n";
    jsonl += obs::traceToJson({130, obs::TraceKind::AccessComplete, 0,
                               0x80, 2, 0}) + "\n";
    jsonl += obs::traceToJson({110, obs::TraceKind::LiHop, 1, 0x40, 2,
                               3}) + "\n";
    jsonl += obs::traceToJson({140, obs::TraceKind::NocSend, 1, 72, 3,
                               static_cast<std::uint64_t>(
                                   MsgType::DataResp)}) + "\n";
    jsonl += obs::traceToJson({150, obs::TraceKind::StatsReset, 0, 0, 0,
                               0}) + "\n";
    const json::Value doc = parseDoc(convert(jsonl));
    validateSchema(doc);

    unsigned slices = 0, instants = 0, meta = 0;
    bool saw_miss = false, saw_hit = false, saw_hop = false;
    for (const json::Value &e : doc["traceEvents"].array) {
        const std::string &ph = e["ph"].asString();
        if (ph == "M") {
            ++meta;
            continue;
        }
        if (ph == "X") {
            ++slices;
            if (e["name"].asString() == "miss") {
                saw_miss = true;
                EXPECT_EQ(e["ts"].asNumber(), 100.0);
                EXPECT_EQ(e["dur"].asNumber(), 57.0);
                EXPECT_EQ(e["pid"].asNumber(), 1.0);
                EXPECT_EQ(e["tid"].asNumber(), 1.0);
            }
            saw_hit |= e["name"].asString() == "hit";
        }
        if (ph == "i") {
            ++instants;
            saw_hop |= e["name"].asString() == "li_hop";
        }
    }
    EXPECT_EQ(slices, 2u);
    EXPECT_EQ(instants, 3u);  // li_hop + noc_send + stats_reset
    EXPECT_TRUE(saw_miss);
    EXPECT_TRUE(saw_hit);
    EXPECT_TRUE(saw_hop);
    EXPECT_GT(meta, 0u);  // track names for Perfetto's UI
}

TEST(ChromeTrace, SortsEventsSoTracksAreMonotone)
{
    // Deliberately out-of-order input.
    std::string jsonl;
    for (std::uint64_t t : {500, 100, 300, 200, 400}) {
        jsonl += obs::traceToJson({t, obs::TraceKind::AccessComplete, 0,
                                   0x40, 1, 0}) + "\n";
    }
    const json::Value doc = parseDoc(convert(jsonl));
    validateSchema(doc);
    double prev = -1;
    unsigned n = 0;
    for (const json::Value &e : doc["traceEvents"].array) {
        if (e["ph"].asString() != "X")
            continue;
        EXPECT_GE(e["ts"].asNumber(), prev);
        prev = e["ts"].asNumber();
        ++n;
    }
    EXPECT_EQ(n, 5u);
}

TEST(ChromeTrace, DropsAccessIssueAndSkipsUnknownKinds)
{
    std::string jsonl;
    jsonl += obs::traceToJson({10, obs::TraceKind::AccessIssue, 0, 0x40,
                               1, 0}) + "\n";
    jsonl += "{\"tick\":11,\"kind\":\"from_the_future\"}\n";
    jsonl += "\n";  // blank lines are tolerated
    jsonl += obs::traceToJson({12, obs::TraceKind::AccessComplete, 0,
                               0x40, 5, 0}) + "\n";
    const json::Value doc = parseDoc(convert(jsonl));
    unsigned non_meta = 0;
    for (const json::Value &e : doc["traceEvents"].array)
        non_meta += e["ph"].asString() != "M";
    EXPECT_EQ(non_meta, 1u);
}

TEST(ChromeTrace, HeartbeatBecomesCounterTrack)
{
    std::string jsonl = obs::traceToJson({1000, obs::TraceKind::Heartbeat,
                                          0, 800, 10000, 250}) + "\n";
    const json::Value doc = parseDoc(convert(jsonl));
    bool found = false;
    for (const json::Value &e : doc["traceEvents"].array) {
        if (e["ph"].asString() != "C")
            continue;
        found = true;
        EXPECT_EQ(e["name"].asString(), "sim_rate");
        EXPECT_EQ(e["args"]["kips"].asNumber(), 250.0);
    }
    EXPECT_TRUE(found);
}

TEST(ChromeTrace, SelfProfSamplesBecomeCounterTrack)
{
    const std::string line = obs::traceToJson(
        {1000, obs::TraceKind::SelfProf, 0,
         static_cast<std::uint64_t>(obs::ProfSite::Md3), 42, 0});
    EXPECT_NE(line.find("\"site\":\"md3\""), std::string::npos) << line;
    EXPECT_NE(line.find("\"samples\":42"), std::string::npos) << line;
    EXPECT_EQ(line.find("\"calls\""), std::string::npos) << line;
    const json::Value doc = parseDoc(convert(line + "\n"));
    bool found = false;
    for (const json::Value &e : doc["traceEvents"].array) {
        if (e["ph"].asString() != "C")
            continue;
        found = true;
        EXPECT_EQ(e["name"].asString(), "selfprof_md3");
        EXPECT_EQ(e["args"]["samples"].asNumber(), 42.0);
    }
    EXPECT_TRUE(found);
}

TEST(ChromeTrace, MalformedLineReportsLineNumber)
{
    std::istringstream in("{\"tick\":1,\"kind\":\"run_end\"}\nnot json\n");
    std::ostringstream out;
    std::string err;
    EXPECT_FALSE(obs::chromeTraceFromJsonl(in, out, err));
    EXPECT_NE(err.find("line 2"), std::string::npos) << err;
}

TEST(ChromeTrace, MissingInputFileFails)
{
    std::string err;
    EXPECT_FALSE(obs::convertTraceFile(test::tempPath("no_such_trace.jsonl"),
                                       test::tempPath("out.json"), err));
    EXPECT_NE(err.find("no_such_trace"), std::string::npos);
}

TEST(ChromeTrace, EndToEndMulticoreTimelineValidates)
{
    const std::string jsonl = test::tempPath("chrome_trace_test.jsonl");
    const std::string out = test::tempPath("chrome_trace_test.json");
    {
        auto *sink = new obs::TraceSink(jsonl, 4096);
        obs::TraceSink *old = obs::setGlobalSink(sink);
        auto sys = makeSystem(ConfigKind::D2mNsR);
        WorkloadParams p;
        p.instructionsPerCore = 2'000;
        p.sharedFootprint = 64 * 1024;
        p.sharedFraction = 0.2;
        p.seed = 7;
        std::vector<std::unique_ptr<AccessStream>> streams;
        for (unsigned c = 0; c < sys->params().numNodes; ++c)
            streams.push_back(std::make_unique<SyntheticStream>(p, c, 64));
        RunOptions opts;
        opts.warmupInstsPerCore = 1'000;
        runMulticore(*sys, streams, opts);
        obs::setGlobalSink(old);
        delete sink;  // flush the tail before converting
    }
    std::string err;
    ASSERT_TRUE(obs::convertTraceFile(jsonl, out, err)) << err;

    std::ifstream in(out);
    ASSERT_TRUE(in.good());
    std::stringstream buf;
    buf << in.rdbuf();
    const json::Value doc = parseDoc(buf.str());
    validateSchema(doc);
    // A real run produces core slices, NoC instants and the sim track.
    bool pids[5] = {};
    for (const json::Value &e : doc["traceEvents"].array) {
        const int pid = static_cast<int>(e["pid"].asNumber());
        if (pid >= 1 && pid <= 4)
            pids[pid] = true;
    }
    EXPECT_TRUE(pids[1]);
    EXPECT_TRUE(pids[2]);
    EXPECT_TRUE(pids[4]);
    std::remove(jsonl.c_str());
    std::remove(out.c_str());
}

} // namespace
} // namespace d2m
