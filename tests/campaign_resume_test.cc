/**
 * @file
 * Kill-and-resume equivalence: a campaign SIGKILLed mid-sweep and
 * resumed from its durable store must produce a D2M_STATS_JSON
 * document byte-identical (modulo host-timing fields) to an
 * uninterrupted campaign (DESIGN.md §12).
 *
 * Children fork before anything reads D2M_STATS_JSON (its path is
 * latched on first use), set their own store/json env, run the sweep
 * serially, and _exit. The parent only waits and compares files.
 */

#include <gtest/gtest.h>

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "harness/runner.hh"
#include "harness/store.hh"
#include "test_util.hh"
#include "workload/suites.hh"

namespace d2m
{
namespace
{

std::vector<NamedWorkload>
smallWorkloads()
{
    WorkloadParams p;
    p.instructionsPerCore = 1'500;
    p.sharedFootprint = 32 * 1024;
    p.sharedFraction = 0.3;
    std::vector<NamedWorkload> v;
    for (int i = 0; i < 3; ++i) {
        p.seed = 100 + i;
        v.push_back({"rtest", "wl" + std::to_string(i), p});
    }
    return v;
}

const std::vector<ConfigKind> kConfigs = {
    ConfigKind::Base2L, ConfigKind::D2mFs, ConfigKind::D2mNsR};

/** Cells started in this process (fork gives each child its own). */
unsigned cellsStarted = 0;

/** Serial campaign in a forked child; never returns. */
[[noreturn]] void
childSweep(const std::string &storeDir, const std::string &jsonPath,
           unsigned killAtCell)
{
    ::setenv("D2M_STORE_DIR", storeDir.c_str(), 1);
    ::setenv("D2M_STATS_JSON", jsonPath.c_str(), 1);
    SweepOptions opts;
    opts.verbose = false;
    opts.warmupInstsPerCore = 500;
    opts.jobs = 1;
    if (killAtCell) {
        opts.preRunHook = [killAtCell](const NamedWorkload &, unsigned) {
            if (++cellsStarted == killAtCell)
                ::kill(::getpid(), SIGKILL);  // no flush, no store write
        };
    }
    runSweep(kConfigs, smallWorkloads(), opts);
    std::fflush(nullptr);
    ::_exit(campaignExitCode(lastSweepOutcome()));
}

int
runChild(const std::string &storeDir, const std::string &jsonPath,
         unsigned killAtCell, int *termSig)
{
    const pid_t pid = ::fork();
    if (pid == 0)
        childSweep(storeDir, jsonPath, killAtCell);
    int status = 0;
    EXPECT_EQ(::waitpid(pid, &status, 0), pid);
    *termSig = WIFSIGNALED(status) ? WTERMSIG(status) : 0;
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

/** Zero the numeric value following every @p key in a JSON string. */
void
zeroJsonField(std::string &doc, const std::string &key)
{
    const std::string needle = "\"" + key + "\":";
    std::size_t pos = 0;
    while ((pos = doc.find(needle, pos)) != std::string::npos) {
        const std::size_t start = pos + needle.size();
        std::size_t end = start;
        while (end < doc.size() && doc[end] != ',' && doc[end] != '}')
            ++end;
        doc.replace(start, end - start, "0");
        pos = start;
    }
}

std::string
normalizedDoc(std::string doc)
{
    zeroJsonField(doc, "sim_kips");
    zeroJsonField(doc, "warmup_wall_sec");
    zeroJsonField(doc, "measure_wall_sec");
    return doc;
}

TEST(CampaignResume, KillResumeByteIdenticalStats)
{
    // Children inherit this binary, so the default __DATE__ __TIME__
    // fingerprint already matches; pin it anyway for clarity.
    ::setenv("D2M_BUILD_FINGERPRINT", "resume-test", 1);
    ::unsetenv("D2M_STORE_DIR");
    ::unsetenv("D2M_STATS_JSON");

    const std::string store = test::tempPath("resume_store");
    const std::string storeRef = test::tempPath("resume_store_ref");
    const std::string jsonA = test::tempPath("resume_a.json");
    const std::string jsonB = test::tempPath("resume_b.json");
    const std::string jsonC = test::tempPath("resume_c.json");
    std::filesystem::remove_all(store);
    std::filesystem::remove_all(storeRef);

    // Phase A: campaign SIGKILLed when the 4th cell starts. Cells
    // 1-3 are already durable; nothing else may survive.
    int sig = 0;
    runChild(store, jsonA, /*killAtCell=*/4, &sig);
    ASSERT_EQ(sig, SIGKILL) << "child must die by SIGKILL";
    {
        ResultStore partial(store);
        EXPECT_EQ(partial.size(), 3u)
            << "exactly the cells finished before the kill";
    }

    // Host telemetry from phase A: every durable record carries the
    // wall-clock finish time and host simulation rate.
    std::vector<StoredRun> phaseA;
    {
        ResultStore partial(store);
        phaseA = partial.all();
        for (const StoredRun &r : phaseA) {
            EXPECT_GT(r.finishedUnix, 0.0) << r.key.hex();
            EXPECT_GT(r.hostKips, 0.0) << r.key.hex();
        }
    }

    // Phase B: resume against the same store. Only the missing six
    // cells execute; exit must be clean.
    int code = runChild(store, jsonB, 0, &sig);
    EXPECT_EQ(sig, 0);
    EXPECT_EQ(code, kCampaignExitClean);

    // Phase C: uninterrupted reference campaign, fresh store.
    code = runChild(storeRef, jsonC, 0, &sig);
    EXPECT_EQ(sig, 0);
    EXPECT_EQ(code, kCampaignExitClean);

    const std::string docB = readFile(jsonB);
    const std::string docC = readFile(jsonC);
    ASSERT_FALSE(docB.empty());
    ASSERT_FALSE(docC.empty());
    EXPECT_EQ(normalizedDoc(docB), normalizedDoc(docC))
        << "resumed document must be byte-identical to uninterrupted";

    // Resume was genuinely incremental: the resumed store must still
    // hold all nine cells afterwards, every record carries host
    // telemetry, and the pre-kill records were served from the store
    // verbatim — their finish timestamps are untouched by phase B.
    ResultStore full(store);
    EXPECT_EQ(full.size(), 9u);
    for (const StoredRun &r : full.all()) {
        EXPECT_GT(r.finishedUnix, 0.0) << r.key.hex();
        EXPECT_GT(r.hostKips, 0.0) << r.key.hex();
    }
    for (const StoredRun &a : phaseA) {
        StoredRun after;
        ASSERT_TRUE(full.lookup(a.key, &after));
        EXPECT_EQ(after.finishedUnix, a.finishedUnix)
            << "resume must not re-stamp stored cells";
        EXPECT_EQ(after.hostKips, a.hostKips);
    }

    std::remove(jsonA.c_str());
    std::remove(jsonB.c_str());
    std::remove(jsonC.c_str());
    std::filesystem::remove_all(store);
    std::filesystem::remove_all(storeRef);
    ::unsetenv("D2M_BUILD_FINGERPRINT");
}

TEST(CampaignResume, ResumeDisabledReexecutesEverything)
{
    ::setenv("D2M_BUILD_FINGERPRINT", "resume-test-2", 1);
    const std::string store = test::tempPath("resume_store_off");
    const std::string json1 = test::tempPath("resume_off_1.json");
    const std::string json2 = test::tempPath("resume_off_2.json");
    std::filesystem::remove_all(store);

    int sig = 0;
    int code = runChild(store, json1, 0, &sig);
    EXPECT_EQ(code, kCampaignExitClean);

    // With D2M_RESUME=0 the store is ignored for lookups (but still
    // written): the sweep runs all cells again and must still succeed.
    ::setenv("D2M_RESUME", "0", 1);
    code = runChild(store, json2, 0, &sig);
    ::unsetenv("D2M_RESUME");
    EXPECT_EQ(sig, 0);
    EXPECT_EQ(code, kCampaignExitClean);
    EXPECT_EQ(normalizedDoc(readFile(json1)),
              normalizedDoc(readFile(json2)));

    std::remove(json1.c_str());
    std::remove(json2.c_str());
    std::filesystem::remove_all(store);
    ::unsetenv("D2M_BUILD_FINGERPRINT");
}

} // namespace
} // namespace d2m
