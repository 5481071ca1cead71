/**
 * @file
 * Structured results export: Metrics rows and full Stats trees as
 * machine-readable JSON (DESIGN.md Section 9).
 *
 * Set D2M_STATS_JSON=<path> to collect every (config, benchmark) run
 * of the process into one JSON document:
 *
 *   { "runs": [ { "config": ..., "suite": ..., "benchmark": ...,
 *                 "metrics": { ... }, "stats": { ... } }, ... ] }
 *
 * The file is written once per runSweep() (after its pool drains, rows
 * in grid order) and once per runOne(). The first write creates the
 * document; each later one writes its rows over the closing trailer
 * and ends with a new one, so the file always holds every row the
 * process has exported. A drained sweep (first SIGINT/SIGTERM) still
 * writes its finished rows. After a SIGKILL or a forced second
 * signal the sweep's rows are lost from the document, but its finished
 * cells are in the result store (D2M_STORE_DIR), and resuming the sweep
 * rebuilds the document from it.
 */

#ifndef D2M_HARNESS_RESULTS_JSON_HH
#define D2M_HARNESS_RESULTS_JSON_HH

#include <string>
#include <vector>

#include "harness/metrics.hh"
#include "obs/json.hh"
#include "obs/snapshot.hh"

namespace d2m
{

/** One Metrics row as a JSON object (deterministic field order).
 * Rows with status "ok" serialize exactly as they always have; non-ok
 * rows append status / error fields (strings, which the stats_diff
 * flattener ignores, so baselines stay comparable). */
std::string metricsToJson(const Metrics &m);

/**
 * Rebuild a Metrics row from a parsed metricsToJson() object (the
 * result store uses this to resurrect rows on campaign resume).
 * Unknown fields are ignored; missing fields keep their defaults.
 * @return false when @p v is not an object.
 */
bool metricsFromJson(const json::Value &v, Metrics *out);

/**
 * Build one complete "runs" array row (metrics + stats tree +
 * optional intervals) without touching the output document. The
 * campaign layer stores this verbatim string so a resumed sweep can
 * re-emit the row byte-identically without re-running anything.
 * @p selfprof, when non-empty, is a prebuilt "selfprof" JSON object
 * ({"wall": obs::SelfProfiler::wallJson()}) embedded verbatim as the
 * row's "selfprof" member.
 */
std::string buildRunRow(const Metrics &m, MemorySystem &system,
                        const obs::StatSnapshotter *intervals = nullptr,
                        const std::string &selfprof = "");

/** A "runs" row for a cell with no surviving system state (a failed
 * run): identity + status + error + metrics. */
std::string buildFailureRow(const Metrics &m);

/**
 * Append prebuilt rows (from buildRunRow / buildFailureRow / the
 * result store), in order, to the process's D2M_STATS_JSON document,
 * writing only those rows and the trailer. Empty rows (cells that
 * left none) are skipped. No-op when the variable is unset.
 * Thread-safe.
 */
void exportRowsJson(const std::vector<std::string> &rows);

/**
 * The D2M_STATS_JSON path ("" when disabled). The variable is read once
 * per process, at the first call, because the document's write offset
 * belongs to that one file: a process that needs another document forks
 * a child before its first sweep.
 */
const std::string &resultsJsonPath();

} // namespace d2m

#endif // D2M_HARNESS_RESULTS_JSON_HH
