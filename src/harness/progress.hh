/**
 * @file
 * Campaign-wide live progress stream (DESIGN.md §13).
 *
 * A sweep is observable while it runs: a CampaignProgress aggregator
 * owns the campaign-level view of every grid cell (pending / running /
 * ok / failed / timeout / abandoned / resumed-from-store), samples the
 * per-run committed-instruction counters the watchdog already wires
 * through RunOptions, and emits
 *
 *  - one JSONL status record to D2M_PROGRESS_JSON on campaign start,
 *    on every cell completion, periodically (D2M_PROGRESS_SEC, default
 *    2 s) while cells are running, and a final record ("final":true)
 *    when the sweep ends — the file is opened in append mode so a
 *    killed-and-resumed campaign accumulates one continuous history;
 *  - a one-line \r-rewritten status to stderr when stderr is a TTY
 *    (suppressed by D2M_QUIET / non-verbose sweeps).
 *
 * Record schema (one JSON object per line):
 *   {"t":<unix sec>,"elapsed_sec":..,"total":N,"done":..,"running":..,
 *    "ok":..,"failed":..,"timeout":..,"abandoned":..,"from_store":..,
 *    "retries":..,"kips":<aggregate running rate>,"eta_sec":<-1 when
 *    unknown>,"final":bool,"cells":[{"suite":..,"benchmark":..,
 *    "config":..,"attempt":..,"insts":..,"kips":..}, ...running only]}
 *
 * Records emitted by a cell completion additionally carry
 *   "finished":{"suite":..,"benchmark":..,"config":..,"status":..,
 *               "attempts":..}
 *
 * Aggregate KIPS is the sum of the running cells' instantaneous
 * rates; the ETA extrapolates from cells executed in this process
 * (resumed cells are free and excluded from the rate).
 */

#ifndef D2M_HARNESS_PROGRESS_HH
#define D2M_HARNESS_PROGRESS_HH

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace d2m
{

/** Campaign progress aggregator + JSONL/TTY emitter. One per sweep. */
class CampaignProgress
{
  public:
    struct Config
    {
        std::string jsonPath;       //!< JSONL sink ("" = off).
        std::uint64_t periodMs = 2000;
        bool tty = false;           //!< \r status line on stderr.
    };

    /** Identity of one grid cell (suite / benchmark / config). */
    struct Cell
    {
        std::string suite;
        std::string benchmark;
        std::string config;
    };

    /**
     * Config from D2M_PROGRESS_JSON / D2M_PROGRESS_SEC; the TTY line
     * is enabled when @p verbose and stderr is a terminal. Returns a
     * disabled config (null reporter) when neither sink applies.
     */
    static Config fromEnv(bool verbose);

    /**
     * Create a reporter for @p cells, or null when @p cfg names no
     * sink — callers null-check, mirroring the snapshotter pattern.
     */
    static std::unique_ptr<CampaignProgress>
    make(Config cfg, std::vector<Cell> cells);

    CampaignProgress(Config cfg, std::vector<Cell> cells);
    ~CampaignProgress();  //!< Emits the final record and joins.

    CampaignProgress(const CampaignProgress &) = delete;
    CampaignProgress &operator=(const CampaignProgress &) = delete;

    /** Cell @p idx resolved from the result store (status string from
     * the stored record: ok / failed / timeout). */
    void cellFromStore(std::size_t idx, const std::string &status);

    /** Cell @p idx began attempt @p attempt; @p insts is the run's
     * live committed-instruction counter (owned by the sweep). */
    void cellStarted(std::size_t idx, std::uint64_t attempt,
                     const std::atomic<std::uint64_t> *insts);

    /** Cell @p idx finished with @p status
     * (ok / failed / timeout / abandoned). */
    void cellFinished(std::size_t idx, const std::string &status);

  private:
    enum class State { Pending, Running, Done };

    struct CellState
    {
        State state = State::Pending;
        std::string status;         //!< Final status once Done.
        std::uint64_t attempt = 0;  //!< 0-based current attempt.
        bool fromStore = false;
        const std::atomic<std::uint64_t> *insts = nullptr;
        // Rate tracking (guarded by mutex_, sampled at emit time).
        std::uint64_t lastInsts = 0;
        std::chrono::steady_clock::time_point lastSample{};
        double kips = 0;
    };

    void loop();
    /** Compose + write one record; callers hold mutex_. When
     * @p finishedIdx names a cell, the record carries a "finished"
     * object describing that cell's terminal outcome. */
    void emitLocked(bool final, std::size_t finishedIdx);

    Config cfg_;
    std::vector<Cell> cells_;
    std::vector<CellState> states_;
    std::chrono::steady_clock::time_point start_;
    std::uint64_t retries_ = 0;
    bool ttyLineActive_ = false;

    std::FILE *json_ = nullptr;
    std::mutex mutex_;
    std::condition_variable cv_;
    bool stop_ = false;
    std::thread thread_;
};

} // namespace d2m

#endif // D2M_HARNESS_PROGRESS_HH
