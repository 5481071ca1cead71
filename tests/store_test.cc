/**
 * @file
 * Durable result store: record round-trips, last-record-wins
 * reloads, torn-line tolerance, records of the previous format, and
 * run-key stability/uniqueness (DESIGN.md §12). Also when a sweep or a
 * runOne() call writes the D2M_STATS_JSON document.
 */

#include <gtest/gtest.h>

#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "harness/results_json.hh"
#include "harness/runner.hh"
#include "harness/store.hh"
#include "obs/json.hh"
#include "test_util.hh"
#include "workload/suites.hh"

namespace d2m
{
namespace
{

/** An empty store directory of this process, named after @p name. */
std::string
freshDir(const char *name)
{
    const std::string dir = test::tempPath(name);
    std::filesystem::remove_all(dir);  // a reused process id
    return dir;
}

NamedWorkload
testWorkload(std::uint64_t seed = 7)
{
    WorkloadParams p;
    p.instructionsPerCore = 1'000;
    p.seed = seed;
    return {"stest", "wl", p};
}

StoredRun
sampleRun(std::uint64_t keyHash, RunStatus status = RunStatus::Ok)
{
    StoredRun run;
    run.key.hash = keyHash;
    run.status = status;
    run.error = status == RunStatus::Ok ? "" : "synthetic \"error\"";
    run.metrics.config = "Base-2L";
    run.metrics.suite = "stest";
    run.metrics.benchmark = "wl";
    run.metrics.instructions = 4000;
    run.metrics.cycles = 12345;
    run.metrics.ipc = 1.75;
    run.metrics.msgsPerKiloInst = 42.5;
    run.row = "{\"config\":\"Base-2L\",\"nested\":{\"q\":\"a\\\"b\"}}";
    return run;
}

TEST(ResultStore, RecordRoundTrip)
{
    const StoredRun run = sampleRun(0x0123456789abcdefull);
    const std::string line = ResultStore::recordToJson(run);
    EXPECT_EQ(line.find('\n'), std::string::npos) << "must be one line";

    StoredRun back;
    ASSERT_TRUE(ResultStore::recordFromJson(line, &back));
    EXPECT_EQ(back.key.hash, run.key.hash);
    EXPECT_EQ(back.status, run.status);
    EXPECT_EQ(back.error, run.error);
    EXPECT_EQ(back.metrics.config, run.metrics.config);
    EXPECT_EQ(back.metrics.instructions, run.metrics.instructions);
    EXPECT_EQ(back.metrics.cycles, run.metrics.cycles);
    EXPECT_DOUBLE_EQ(back.metrics.ipc, run.metrics.ipc);
    EXPECT_DOUBLE_EQ(back.metrics.msgsPerKiloInst,
                     run.metrics.msgsPerKiloInst);
    EXPECT_EQ(back.row, run.row) << "row must survive escaping";
}

TEST(ResultStore, RecordRoundTripKeepsEveryMetric)
{
    // A resumed bench reads its rows back from the store, so a field
    // the reader drops would read 0 there while the document row (a
    // verbatim string) stays right.
    StoredRun run = sampleRun(7);
    Metrics &m = run.metrics;
    unsigned n = 0;
    for (std::uint64_t *f :
         {&m.instructions, &m.cycles, &m.accesses,
          &m.invalidationsReceived, &m.dirOrMd3Accesses, &m.md2Accesses,
          &m.l2TagAccesses, &m.llcTagAccesses, &m.valueErrors,
          &m.invariantErrors})
        *f = 1000 + ++n;
    for (double *f :
         {&m.ipc, &m.msgsPerKiloInst, &m.d2mMsgsPerKiloInst,
          &m.bytesPerKiloInst, &m.energyPj, &m.edp, &m.l1iMissPct,
          &m.l1dMissPct, &m.lateHitIPct, &m.lateHitDPct, &m.nearHitRatioI,
          &m.nearHitRatioD, &m.avgMissLatency, &m.missLatencyP50,
          &m.missLatencyP95, &m.missLatencyP99, &m.accessLatencyP99,
          &m.nocDelayP99, &m.avgLiHops, &m.liHopsP99, &m.privateMissPct,
          &m.directAccessPct, &m.nsLocalPct, &m.simKips, &m.warmupWallSec,
          &m.measureWallSec})
        *f = 0.25 * ++n;  // exact at the document's 6 decimal places
    const std::string doc = metricsToJson(m);
    for (const char *zero : {":0,", ":0}", ":0.000000"})
        ASSERT_EQ(doc.find(zero), std::string::npos)
            << "a numeric field kept its default: " << doc;

    StoredRun back;
    ASSERT_TRUE(ResultStore::recordFromJson(ResultStore::recordToJson(run),
                                            &back));
    EXPECT_EQ(metricsToJson(back.metrics), doc);
}

TEST(ResultStore, FailureRecordRoundTrip)
{
    const StoredRun run = sampleRun(42, RunStatus::Failed);
    StoredRun back;
    ASSERT_TRUE(ResultStore::recordFromJson(ResultStore::recordToJson(run),
                                            &back));
    EXPECT_EQ(back.status, RunStatus::Failed);
    EXPECT_EQ(back.error, run.error);
}

TEST(ResultStore, PutLookupReloadLastWins)
{
    const std::string dir = freshDir("store_put");
    {
        ResultStore store(dir);
        EXPECT_EQ(store.size(), 0u);
        store.put(sampleRun(1));
        store.put(sampleRun(2));
        StoredRun updated = sampleRun(1);
        updated.hostKips = 9;
        store.put(updated);  // replaces, same key
        EXPECT_EQ(store.size(), 2u);
    }
    // Fresh instance reloads from disk.
    ResultStore store(dir);
    EXPECT_EQ(store.size(), 2u);
    StoredRun out;
    ASSERT_TRUE(store.lookup(RunKey{1}, &out));
    EXPECT_EQ(out.hostKips, 9.0) << "newest record must win";
    ASSERT_TRUE(store.lookup(RunKey{2}, &out));
    EXPECT_FALSE(store.lookup(RunKey{3}, &out));
    std::filesystem::remove_all(dir);
}

TEST(ResultStore, ToleratesTornAndGarbageLines)
{
    const std::string dir = freshDir("store_torn");
    {
        ResultStore store(dir);
        store.put(sampleRun(1));
    }
    // Append garbage + a torn (no-newline) prefix of a real record to
    // the shard holding key 1 — what a SIGKILL mid-append leaves.
    const unsigned shard = 1 % ResultStore::kShards;
    char name[32];
    std::snprintf(name, sizeof(name), "/shard-%02u.jsonl", shard);
    {
        std::ofstream f(dir + name, std::ios::app);
        f << "not json at all\n";
        f << ResultStore::recordToJson(sampleRun(17)).substr(0, 25);
        // no trailing newline: torn write
    }
    ResultStore store(dir);
    EXPECT_EQ(store.size(), 1u);
    StoredRun out;
    EXPECT_TRUE(store.lookup(RunKey{1}, &out));
    EXPECT_FALSE(store.lookup(RunKey{17}, &out));

    // The next put self-heals the shard: reload again, still clean.
    store.put(sampleRun(1 + ResultStore::kShards));  // same shard
    ResultStore healed(dir);
    EXPECT_EQ(healed.size(), 2u);
    std::filesystem::remove_all(dir);
}

/** Path of the shard that holds @p key in store @p dir. */
std::string
shardFile(const std::string &dir, const RunKey &key)
{
    char name[32];
    std::snprintf(name, sizeof(name), "/shard-%02u.jsonl",
                  static_cast<unsigned>(key.hash % ResultStore::kShards));
    return dir + name;
}

/** A zero-filled metrics object with @p status, as the previous format
 * wrote it: non-ok rows carried an "attempts" count. */
std::string
oldMetricsJson(const std::string &config, const std::string &status,
               const std::string &error)
{
    std::string m = "{\"config\":\"" + config +
                    "\",\"suite\":\"stest\",\"benchmark\":\"wl\","
                    "\"instructions\":0,\"cycles\":0,\"ipc\":0.000000";
    if (status != "ok") {
        m += ",\"status\":\"" + status + "\",\"attempts\":1,\"error\":" +
             json::quote(error);
    }
    return m + "}";
}

/** One store line in the previous format: a "seed" hex string and an
 * "attempts" count between the status and the error. */
std::string
oldRecordLine(const RunKey &key, const std::string &status,
              const std::string &metrics, const std::string &row)
{
    return "{\"key\":\"" + key.hex() + "\",\"status\":\"" + status +
           "\",\"seed\":\"0xdeadbeefcafe0001\",\"attempts\":2,"
           "\"error\":\"\",\"finished_unix\":1792298337.503211,"
           "\"host_kips\":812.500000,\"metrics\":" +
           metrics + ",\"row\":" + json::quote(row) + "}";
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

TEST(ResultStore, PreviousFormatRecordsReplayVerbatim)
{
    ::setenv("D2M_BUILD_FINGERPRINT", "store-compat", 1);
    const std::string dir = freshDir("store_compat");
    const std::string json = test::tempPath("store_compat.json");
    std::remove(json.c_str());
    ::mkdir(dir.c_str(), 0777);

    // Keys exactly as runSweep() computes them for the sweep below.
    const NamedWorkload wl = testWorkload();
    const RunKey okKey =
        makeRunKey(ConfigKind::Base2L, wl, 500, 1000, SystemParams{});
    const RunKey failKey =
        makeRunKey(ConfigKind::Base3L, wl, 500, 1000, SystemParams{});
    const std::string okRow =
        "{\"config\":\"Base-2L\",\"suite\":\"stest\",\"benchmark\":"
        "\"wl\",\"metrics\":" + oldMetricsJson("Base-2L", "ok", "") +
        ",\"stats\":{\"x\":1}}";
    const std::string failMetrics =
        oldMetricsJson("Base-3L", "failed", "boom");
    const std::string failRow =
        "{\"config\":\"Base-3L\",\"suite\":\"stest\",\"benchmark\":"
        "\"wl\",\"status\":\"failed\",\"attempts\":1,\"error\":"
        "\"boom\",\"metrics\":" + failMetrics + "}";
    {
        std::ofstream(shardFile(dir, okKey), std::ios::app)
            << oldRecordLine(okKey, "ok", oldMetricsJson("Base-2L", "ok", ""),
                             okRow)
            << "\n";
        std::ofstream(shardFile(dir, failKey), std::ios::app)
            << oldRecordLine(failKey, "failed", failMetrics, failRow)
            << "\n";
    }

    ResultStore store(dir);
    EXPECT_EQ(store.size(), 2u);
    StoredRun out;
    ASSERT_TRUE(store.lookup(okKey, &out));
    EXPECT_EQ(out.status, RunStatus::Ok);
    EXPECT_EQ(out.hostKips, 812.5);
    EXPECT_EQ(out.row, okRow);
    ASSERT_TRUE(store.lookup(failKey, &out));
    EXPECT_EQ(out.status, RunStatus::Failed);
    EXPECT_EQ(out.metrics.errorMessage, "boom");
    EXPECT_EQ(out.row, failRow);

    // Resume replays both rows byte for byte and executes nothing. The
    // child forks before D2M_STATS_JSON is first read (it is latched).
    const pid_t pid = ::fork();
    if (pid == 0) {
        ::setenv("D2M_STORE_DIR", dir.c_str(), 1);
        ::setenv("D2M_STATS_JSON", json.c_str(), 1);
        SweepOptions opts;
        opts.verbose = false;
        opts.warmupInstsPerCore = 500;
        opts.jobs = 1;
        opts.preRunHook = [](const NamedWorkload &, unsigned) {
            std::_Exit(7);  // no cell may execute
        };
        runSweep({ConfigKind::Base2L, ConfigKind::Base3L}, {wl}, opts);
        std::_Exit(campaignExitCode(lastSweepOutcome()));
    }
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), kCampaignExitFailed)
        << "the stored failure counts; nothing re-runs";
    EXPECT_EQ(readFile(json),
              "{\"runs\":[\n" + okRow + ",\n" + failRow + "\n]}\n");
    std::remove(json.c_str());
    std::filesystem::remove_all(dir);
    ::unsetenv("D2M_BUILD_FINGERPRINT");
}

TEST(StatsDocument, WrittenOnceAfterTheSweep)
{
    ::unsetenv("D2M_STORE_DIR");
    const std::string json = test::tempPath("stats_once.json");
    std::remove(json.c_str());

    // The child forks before D2M_STATS_JSON is first read (it is
    // latched) and exits 9 if the first cell's row is in the document
    // when the second cell starts.
    const pid_t pid = ::fork();
    if (pid == 0) {
        ::setenv("D2M_STATS_JSON", json.c_str(), 1);
        SweepOptions opts;
        opts.verbose = false;
        opts.warmupInstsPerCore = 500;
        opts.jobs = 1;
        unsigned started = 0;
        opts.preRunHook = [&](const NamedWorkload &, unsigned) {
            if (++started == 2 &&
                readFile(json).find("\"metrics\"") != std::string::npos)
                std::_Exit(9);
        };
        runSweep({ConfigKind::Base2L, ConfigKind::Base3L, ConfigKind::D2mFs},
                 {testWorkload()}, opts);
        std::_Exit(campaignExitCode(lastSweepOutcome()));
    }
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status));
    ASSERT_NE(WEXITSTATUS(status), 9)
        << "the document was written before the sweep ended";
    EXPECT_EQ(WEXITSTATUS(status), kCampaignExitClean);

    json::Value doc;
    std::string err;
    ASSERT_TRUE(json::parse(readFile(json), doc, err)) << err;
    ASSERT_EQ(doc["runs"].array.size(), 3u);
    EXPECT_EQ(doc["runs"].array[0]["config"].asString(), "Base-2L");
    EXPECT_EQ(doc["runs"].array[2]["config"].asString(), "D2M-FS");
    std::remove(json.c_str());
}

TEST(StatsDocument, RunOneAppendsRowsInCallOrder)
{
    ::unsetenv("D2M_STORE_DIR");
    const std::string json = test::tempPath("stats_run_one.json");
    std::remove(json.c_str());

    // The child forks before D2M_STATS_JSON is first read (it is
    // latched) and exits 9 unless the document parses after each call
    // and holds one row per call so far.
    const pid_t pid = ::fork();
    if (pid == 0) {
        ::setenv("D2M_STATS_JSON", json.c_str(), 1);
        SweepOptions opts;
        opts.verbose = false;
        opts.warmupInstsPerCore = 500;
        std::size_t calls = 0;
        for (ConfigKind kind :
             {ConfigKind::Base2L, ConfigKind::Base3L, ConfigKind::D2mFs}) {
            runOne(kind, testWorkload(), opts);
            json::Value doc;
            std::string err;
            if (!json::parse(readFile(json), doc, err) ||
                doc["runs"].array.size() != ++calls)
                std::_Exit(9);
        }
        std::_Exit(0);
    }
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status));
    ASSERT_EQ(WEXITSTATUS(status), 0)
        << "the document was incomplete after a runOne call";

    json::Value doc;
    std::string err;
    ASSERT_TRUE(json::parse(readFile(json), doc, err)) << err;
    ASSERT_EQ(doc["runs"].array.size(), 3u);
    EXPECT_EQ(doc["runs"].array[0]["config"].asString(), "Base-2L");
    EXPECT_EQ(doc["runs"].array[1]["config"].asString(), "Base-3L");
    EXPECT_EQ(doc["runs"].array[2]["config"].asString(), "D2M-FS");
    std::remove(json.c_str());
}

TEST(ResultStore, TimeoutRecordIsDroppedLikeATornLine)
{
    const std::string dir = freshDir("store_timeout");
    ::mkdir(dir.c_str(), 0777);
    const RunKey key{5};
    const std::string line = oldRecordLine(
        key, "timeout", oldMetricsJson("Base-2L", "timeout", "stalled"),
        "{}");
    StoredRun out;
    EXPECT_FALSE(ResultStore::recordFromJson(line, &out));
    std::ofstream(shardFile(dir, key), std::ios::trunc) << line << "\n";

    ResultStore store(dir);
    EXPECT_EQ(store.size(), 0u);
    EXPECT_FALSE(store.lookup(key, &out)) << "its cell re-runs on resume";

    // The cell's next record replaces the dropped line on disk.
    StoredRun rerun = sampleRun(key.hash);
    store.put(rerun);
    const std::string shard = readFile(shardFile(dir, key));
    EXPECT_EQ(shard, ResultStore::recordToJson(rerun) + "\n");
    std::filesystem::remove_all(dir);
}

TEST(RunKeys, StableAndSensitiveToInputs)
{
    ::setenv("D2M_BUILD_FINGERPRINT", "test-fp-1", 1);
    const NamedWorkload wl = testWorkload();
    const SystemParams sp;
    const RunKey a = makeRunKey(ConfigKind::Base2L, wl, 500, 1000, sp);
    const RunKey b = makeRunKey(ConfigKind::Base2L, wl, 500, 1000, sp);
    EXPECT_EQ(a.hash, b.hash) << "same inputs, same key";
    EXPECT_EQ(a.hex().size(), 16u);

    // Every dimension of the cell identity must change the key.
    EXPECT_NE(a.hash,
              makeRunKey(ConfigKind::D2mFs, wl, 500, 1000, sp).hash);
    EXPECT_NE(a.hash,
              makeRunKey(ConfigKind::Base2L, wl, 501, 1000, sp).hash);
    EXPECT_NE(a.hash,
              makeRunKey(ConfigKind::Base2L, wl, 500, 1001, sp).hash);
    EXPECT_NE(a.hash,
              makeRunKey(ConfigKind::Base2L, testWorkload(8), 500, 1000,
                         sp).hash);
    NamedWorkload renamed = wl;
    renamed.name = "wl2";
    EXPECT_NE(a.hash,
              makeRunKey(ConfigKind::Base2L, renamed, 500, 1000, sp).hash);
    SystemParams sp2;
    sp2.lat.dram = sp.lat.dram + 1;
    EXPECT_NE(a.hash,
              makeRunKey(ConfigKind::Base2L, wl, 500, 1000, sp2).hash);
    SystemParams sp3;
    sp3.nsPressurePeriod = sp.nsPressurePeriod + 1;
    EXPECT_NE(a.hash,
              makeRunKey(ConfigKind::Base2L, wl, 500, 1000, sp3).hash);

    // A different binary fingerprint invalidates everything.
    ::setenv("D2M_BUILD_FINGERPRINT", "test-fp-2", 1);
    EXPECT_NE(a.hash,
              makeRunKey(ConfigKind::Base2L, wl, 500, 1000, sp).hash);
    ::unsetenv("D2M_BUILD_FINGERPRINT");
}

TEST(RunKeys, HexFormatting)
{
    EXPECT_EQ(RunKey{0}.hex(), "0000000000000000");
    EXPECT_EQ(RunKey{0xabc}.hex(), "0000000000000abc");
}

} // namespace
} // namespace d2m
