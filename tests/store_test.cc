/**
 * @file
 * Durable result store: record round-trips, last-record-wins
 * reloads, torn-line tolerance, and run-key stability/uniqueness
 * (DESIGN.md §12).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "harness/store.hh"
#include "workload/suites.hh"

namespace d2m
{
namespace
{

std::string
freshDir(const char *name)
{
    const std::string dir = testing::TempDir() + name;
    // Tests reuse temp dirs across runs; start from nothing.
    for (unsigned s = 0; s < ResultStore::kShards; ++s) {
        char shard[32];
        std::snprintf(shard, sizeof(shard), "/shard-%02u.jsonl", s);
        std::remove((dir + shard).c_str());
    }
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
    run.seed = 0xDEADBEEFCAFE0001ull;  // needs full 64-bit round-trip
    run.attempts = 2;
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
    EXPECT_EQ(back.seed, run.seed);
    EXPECT_EQ(back.attempts, run.attempts);
    EXPECT_EQ(back.error, run.error);
    EXPECT_EQ(back.metrics.config, run.metrics.config);
    EXPECT_EQ(back.metrics.instructions, run.metrics.instructions);
    EXPECT_EQ(back.metrics.cycles, run.metrics.cycles);
    EXPECT_DOUBLE_EQ(back.metrics.ipc, run.metrics.ipc);
    EXPECT_DOUBLE_EQ(back.metrics.msgsPerKiloInst,
                     run.metrics.msgsPerKiloInst);
    EXPECT_EQ(back.row, run.row) << "row must survive escaping";
}

TEST(ResultStore, FailureRecordRoundTrip)
{
    const StoredRun run = sampleRun(42, RunStatus::Timeout);
    StoredRun back;
    ASSERT_TRUE(ResultStore::recordFromJson(ResultStore::recordToJson(run),
                                            &back));
    EXPECT_EQ(back.status, RunStatus::Timeout);
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
        updated.attempts = 9;
        store.put(updated);  // replaces, same key
        EXPECT_EQ(store.size(), 2u);
    }
    // Fresh instance reloads from disk.
    ResultStore store(dir);
    EXPECT_EQ(store.size(), 2u);
    StoredRun out;
    ASSERT_TRUE(store.lookup(RunKey{1}, &out));
    EXPECT_EQ(out.attempts, 9u) << "newest record must win";
    ASSERT_TRUE(store.lookup(RunKey{2}, &out));
    EXPECT_FALSE(store.lookup(RunKey{3}, &out));
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
