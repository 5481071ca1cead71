/**
 * @file
 * Durable campaign result store (DESIGN.md §12).
 *
 * Every finished sweep cell — successful or not — is recorded as one
 * JSONL line in a sharded, append-only store under D2M_STORE_DIR.
 * Records are keyed by a content hash over everything that determines
 * the run's output: configuration, workload parameters, run lengths,
 * seed, and the binary fingerprint. A campaign that is killed (even
 * SIGKILL) and restarted with the same store re-executes only the
 * missing cells; completed rows are resurrected verbatim so the
 * final D2M_STATS_JSON document is byte-identical to an
 * uninterrupted campaign's.
 *
 * Durability discipline: each put rewrites the record's shard to a
 * temp file, fsyncs it, renames it over the shard, and fsyncs the
 * directory. The loader tolerates torn or corrupt lines (a crash
 * mid-write loses at most the in-flight record) and self-heals the
 * shard on the next put.
 */

#ifndef D2M_HARNESS_STORE_HH
#define D2M_HARNESS_STORE_HH

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "harness/configs.hh"
#include "harness/metrics.hh"
#include "workload/synthetic.hh"

namespace d2m
{

/** Final status of one campaign cell. */
enum class RunStatus
{
    Ok,      //!< Completed, metrics valid.
    Failed,  //!< fatal()/panic()/exception in the run.
};

const char *runStatusName(RunStatus s);

/** Content-hash identity of one (config, workload, run-length) cell. */
struct RunKey
{
    std::uint64_t hash = 0;

    /** 16 lowercase hex digits (the stored "key" field). */
    std::string hex() const;

    bool operator==(const RunKey &o) const { return hash == o.hash; }
};

/**
 * Hash everything that determines a run's output: config name, suite,
 * benchmark, warmup/measured instruction counts, every workload
 * parameter, every system parameter (latencies, core model,
 * toggles, seed) and the binary fingerprint. Any change to any
 * of these yields a different key, so a resumed campaign never serves
 * a stale row for different inputs.
 */
RunKey makeRunKey(ConfigKind kind, const NamedWorkload &wl,
                  std::uint64_t warmupInsts, std::uint64_t measuredInsts,
                  const SystemParams &params);

/**
 * Binary identity baked into every run key. Defaults to the build's
 * __DATE__/__TIME__ stamp; override with D2M_BUILD_FINGERPRINT for
 * reproducible resume across rebuilds of identical sources (CI does
 * this).
 */
std::string binaryFingerprint();

/** One durable record. */
struct StoredRun
{
    RunKey key;
    RunStatus status = RunStatus::Ok;
    std::string error;  //!< Diagnostic for non-ok outcomes.
    /** Host wall-clock (unix seconds) when the cell finished, and its
     * measured simulation rate. Campaign-host telemetry only: the
     * dashboard plots KIPS trends across resumed campaigns from these,
     * and stats_diff's store loader deliberately omits them so stored
     * documents still compare byte-identical across hosts. Zero in
     * records written before these fields existed. */
    double finishedUnix = 0;
    double hostKips = 0;
    Metrics metrics;
    /** Verbatim D2M_STATS_JSON row (metrics+stats+intervals) for ok
     * runs, so resume reproduces the document byte-for-byte. Empty
     * when stats export was disabled or the run failed. */
    std::string row;
};

/** Sharded JSONL store rooted at one directory. Thread-safe. */
class ResultStore
{
  public:
    static constexpr unsigned kShards = 16;

    /** Store at D2M_STORE_DIR, or nullptr when the env is unset. The
     * variable is re-read on every call (tests fork + setenv). */
    static std::unique_ptr<ResultStore> fromEnv();

    /** Open (creating the directory if needed) and load all shards. */
    explicit ResultStore(std::string dir);

    /** @return true and fill @p out when @p key has a record. */
    bool lookup(const RunKey &key, StoredRun *out) const;

    /** Record @p run durably (temp + fsync + rename). Replaces any
     * prior record with the same key. */
    void put(const StoredRun &run);

    std::size_t size() const;
    const std::string &dir() const { return dir_; }

    /** All records, in unspecified order. */
    std::vector<StoredRun> all() const;

    /** Serialize one record as a single JSONL line (no newline). */
    static std::string recordToJson(const StoredRun &run);

    /** Parse one line; @return false on torn/corrupt input, and on
     * a status this code no longer writes ("timeout"), so that cell
     * re-runs on resume. Older records' "seed" and "attempts" fields
     * are ignored. */
    static bool recordFromJson(const std::string &line, StoredRun *out);

  private:
    std::string shardPath(unsigned shard) const;
    void persistShard(unsigned shard);

    std::string dir_;
    mutable std::mutex mutex_;
    /** Live lines per shard (rewritten wholesale on put). */
    std::vector<std::vector<std::string>> shardLines_;
    /** key.hash -> parsed record (last line wins on load). */
    std::map<std::uint64_t, StoredRun> index_;
};

} // namespace d2m

#endif // D2M_HARNESS_STORE_HH
