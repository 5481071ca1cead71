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
 * The file is rewritten after each run so it is valid JSON at every
 * point in time, even if the sweep is interrupted.
 */

#ifndef D2M_HARNESS_RESULTS_JSON_HH
#define D2M_HARNESS_RESULTS_JSON_HH

#include <cstdint>
#include <string>

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

/** exportRunJson slot meaning "append after all reserved slots". */
inline constexpr std::uint64_t kRunSlotAppend = ~std::uint64_t(0);

/**
 * Reserve @p n consecutive output slots in the "runs" array and
 * return the first one. The sweep runner reserves one slot per run
 * up front (in serial order), then parallel jobs export into their
 * assigned slot — so the emitted document is identical no matter
 * which order jobs finish in.
 */
std::uint64_t reserveRunSlots(std::size_t n);

/**
 * Record one finished run. When D2M_STATS_JSON names a file, the run's
 * metrics row plus @p system's full statistics tree are added to it
 * (the accumulated document is rewritten atomically-enough for CI
 * consumption). When @p intervals is non-null its rows are embedded as
 * the run's "intervals" array. No-op when the variable is unset.
 *
 * @p slot orders the row within the document: pass a slot obtained
 * from reserveRunSlots() for deterministic ordering, or
 * kRunSlotAppend to place the row after everything reserved so far.
 * Thread-safe.
 */
void exportRunJson(const Metrics &m, MemorySystem &system,
                   const obs::StatSnapshotter *intervals = nullptr,
                   std::uint64_t slot = kRunSlotAppend);

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
 * Insert a prebuilt row (from buildRunRow / buildFailureRow / the
 * result store) into the collected document at @p slot and rewrite
 * D2M_STATS_JSON. No-op when the variable is unset or @p row is
 * empty. Thread-safe.
 */
void exportRowJson(std::string row, std::uint64_t slot = kRunSlotAppend);

/** The D2M_STATS_JSON path ("" when disabled). */
const std::string &resultsJsonPath();

} // namespace d2m

#endif // D2M_HARNESS_RESULTS_JSON_HH
