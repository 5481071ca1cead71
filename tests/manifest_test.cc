/**
 * @file
 * Sweep-manifest tests (DESIGN.md §13): parse round-trip, the strict
 * rejection of unknown/duplicate/malformed input, and the env-seeding
 * precedence rule (environment beats manifest) that makes a
 * manifest-driven campaign exactly the env-var-driven one.
 */

#include <gtest/gtest.h>

#include <cstdlib>

#include "harness/manifest.hh"

namespace d2m
{
namespace
{

const char *kText =
    "# fig5 nightly\n"
    "[campaign]\n"
    "store_dir   = out/store\n"
    "jobs        = 4\n"
    "\n"
    "[grid]\n"
    "configs        = Base-2L,D2M-NS-R\n"
    "insts_per_core = 20000\n"
    "\n"
    "[obs]\n"
    "interval_insts = 5000\n";

TEST(Manifest, ParseRoundTrip)
{
    Manifest m = parseManifestText(kText, "test");
    ASSERT_EQ(m.entries.size(), 5u);

    EXPECT_EQ(m.entries[0].section, "campaign");
    EXPECT_EQ(m.entries[0].key, "store_dir");
    EXPECT_EQ(m.entries[0].value, "out/store");
    EXPECT_EQ(m.entries[0].env, "D2M_STORE_DIR");
    EXPECT_EQ(m.entries[0].line, 3);

    EXPECT_EQ(m.entries[1].env, "D2M_JOBS");
    EXPECT_EQ(m.entries[1].value, "4");

    EXPECT_EQ(m.entries[2].env, "D2M_CONFIG_FILTER");
    EXPECT_EQ(m.entries[2].value, "Base-2L,D2M-NS-R");

    EXPECT_EQ(m.entries[3].env, "D2M_INSTS_PER_CORE");
    EXPECT_EQ(m.entries[4].env, "D2M_INTERVAL_INSTS");
    EXPECT_EQ(m.entries[4].line, 11);
}

TEST(Manifest, KeyTableIsWellFormed)
{
    const auto &keys = manifestKeys();
    ASSERT_FALSE(keys.empty());
    for (std::size_t i = 0; i < keys.size(); ++i) {
        EXPECT_EQ(std::string(keys[i].env).rfind("D2M_", 0), 0u)
            << keys[i].section << "." << keys[i].key;
        for (std::size_t j = i + 1; j < keys.size(); ++j) {
            EXPECT_FALSE(std::string(keys[i].section) == keys[j].section &&
                         std::string(keys[i].key) == keys[j].key)
                << "duplicate mapping " << keys[i].section << "."
                << keys[i].key;
            EXPECT_STRNE(keys[i].env, keys[j].env)
                << "two keys map to " << keys[i].env;
        }
    }
}

TEST(Manifest, ObsKeysParse)
{
    Manifest m = parseManifestText(
        "[obs]\nselfprof = 1\nheartbeat_minsts = 4\n", "t");
    ASSERT_EQ(m.entries.size(), 2u);
    EXPECT_EQ(m.entries[0].env, "D2M_SELFPROF");
    EXPECT_EQ(m.entries[0].value, "1");
    EXPECT_EQ(m.entries[1].env, "D2M_HEARTBEAT");
    EXPECT_EQ(m.entries[1].value, "4");
}

TEST(ManifestDeathTest, NonNumericObsValueIsFatal)
{
    // The obs switches are numeric: the manifest validator must
    // reject junk values.
    EXPECT_EXIT(parseManifestText("[obs]\nheartbeat_minsts = ten\n", "t"),
                testing::ExitedWithCode(1), "not an unsigned integer");
    EXPECT_EXIT(parseManifestText("[obs]\nselfprof = yes\n", "t"),
                testing::ExitedWithCode(1), "not an unsigned integer");
}

TEST(ManifestDeathTest, UnknownObsKeyIsFatal)
{
    EXPECT_EXIT(parseManifestText("[obs]\nselfprof_topn = 5\n", "t"),
                testing::ExitedWithCode(1),
                "unknown key 'selfprof_topn'");
}

TEST(ManifestDeathTest, UnknownSectionIsFatal)
{
    EXPECT_EXIT(parseManifestText("[bogus]\nx = 1\n", "t"),
                testing::ExitedWithCode(1), "unknown section");
}

TEST(ManifestDeathTest, UnknownKeyIsFatal)
{
    EXPECT_EXIT(parseManifestText("[grid]\nbogus = 1\n", "t"),
                testing::ExitedWithCode(1), "unknown key 'bogus'");
    // Retired keys of the removed lane-parallel mode: a stale manifest
    // is rejected at the offending line, not silently run serially.
    EXPECT_EXIT(
        parseManifestText("[grid]\nseed = 1\nlane_jobs = 4\n", "t"),
        testing::ExitedWithCode(1), "t:3: unknown key 'lane_jobs'");
    EXPECT_EXIT(parseManifestText("[grid]\nlane_window = 200\n", "t"),
                testing::ExitedWithCode(1),
                "t:2: unknown key 'lane_window'");
    EXPECT_EXIT(parseManifestText("[obs]\nselfprof = 1\nlanes = 4\n", "t"),
                testing::ExitedWithCode(1), "t:3: unknown key 'lanes'");
    // Retired with the timer tree's top-N table: the sampled table
    // lists every path.
    EXPECT_EXIT(
        parseManifestText("[obs]\nselfprof = 1\nselfprof_top = 15\n", "t"),
        testing::ExitedWithCode(1), "t:3: unknown key 'selfprof_top'");
    // Retired with the debug-flag tracer: the typed trace is the only
    // event log.
    EXPECT_EXIT(parseManifestText("[obs]\ndebug = MD\n", "t"),
                testing::ExitedWithCode(1), "t:2: unknown key 'debug'");
    // Retired with the stall watchdog, the seed-changing retries and
    // the live progress stream: a sweep runs each cell once.
    EXPECT_EXIT(parseManifestText("[campaign]\ntimeout_sec = 120\n", "t"),
                testing::ExitedWithCode(1),
                "t:2: unknown key 'timeout_sec'");
    EXPECT_EXIT(
        parseManifestText("[campaign]\njobs = 2\nretries = 1\n", "t"),
        testing::ExitedWithCode(1), "t:3: unknown key 'retries'");
    EXPECT_EXIT(parseManifestText(
                    "[campaign]\nprogress_json = p.jsonl\n", "t"),
                testing::ExitedWithCode(1),
                "t:2: unknown key 'progress_json'");
    EXPECT_EXIT(parseManifestText(
                    "[campaign]\njobs = 2\n\nprogress_sec = 1\n", "t"),
                testing::ExitedWithCode(1),
                "t:4: unknown key 'progress_sec'");
}

TEST(ManifestDeathTest, DuplicateKeyIsFatal)
{
    EXPECT_EXIT(
        parseManifestText("[grid]\nseed = 1\nseed = 2\n", "t"),
        testing::ExitedWithCode(1), "duplicate key");
}

TEST(ManifestDeathTest, EmptyValueIsFatal)
{
    EXPECT_EXIT(parseManifestText("[grid]\nseed =\n", "t"),
                testing::ExitedWithCode(1), "empty value");
}

TEST(ManifestDeathTest, NonNumericValueIsFatal)
{
    EXPECT_EXIT(parseManifestText("[grid]\nseed = twelve\n", "t"),
                testing::ExitedWithCode(1), "not an unsigned integer");
}

TEST(ManifestDeathTest, KeyBeforeSectionIsFatal)
{
    EXPECT_EXIT(parseManifestText("seed = 1\n", "t"),
                testing::ExitedWithCode(1), "before any .section.");
}

TEST(Manifest, ApplySeedsUnsetVariables)
{
    ::unsetenv("D2M_STORE_DIR");
    ::unsetenv("D2M_JOBS");
    Manifest m = parseManifestText(
        "[campaign]\nstore_dir = /tmp/mstore\njobs = 42\n", "t");
    EXPECT_EQ(applyManifest(m, false), 2u);
    EXPECT_STREQ(std::getenv("D2M_STORE_DIR"), "/tmp/mstore");
    EXPECT_STREQ(std::getenv("D2M_JOBS"), "42");
    EXPECT_FALSE(m.entries[0].overridden);
    EXPECT_FALSE(m.entries[1].overridden);
    ::unsetenv("D2M_STORE_DIR");
    ::unsetenv("D2M_JOBS");
}

TEST(Manifest, EnvironmentWinsOverManifest)
{
    // The precedence rule: an exported variable beats the manifest, so
    // ad-hoc experimentation never requires editing the file.
    ::setenv("D2M_JOBS", "7", 1);
    ::unsetenv("D2M_STORE_DIR");
    Manifest m = parseManifestText(
        "[campaign]\nstore_dir = /tmp/mstore\njobs = 42\n", "t");
    EXPECT_EQ(applyManifest(m, false), 1u)
        << "only the unset variable is applied";
    EXPECT_STREQ(std::getenv("D2M_JOBS"), "7")
        << "environment value must survive";
    EXPECT_STREQ(std::getenv("D2M_STORE_DIR"), "/tmp/mstore");
    EXPECT_TRUE(m.entries[1].overridden);
    EXPECT_FALSE(m.entries[0].overridden);
    ::unsetenv("D2M_JOBS");
    ::unsetenv("D2M_STORE_DIR");
}

TEST(Manifest, CommentsAndBlankLinesIgnored)
{
    Manifest m = parseManifestText(
        "# comment\n; also a comment\n\n[grid]\n# inner\nseed = 9\n",
        "t");
    ASSERT_EQ(m.entries.size(), 1u);
    EXPECT_EQ(m.entries[0].value, "9");
    EXPECT_EQ(m.entries[0].line, 6);
}

} // namespace
} // namespace d2m
