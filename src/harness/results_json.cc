#include "harness/results_json.hh"

#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <sstream>
#include <type_traits>

#include "common/logging.hh"
#include "obs/json.hh"

namespace d2m
{

namespace
{

std::mutex docMutex;  //!< Guards the document file and its state below.
/** Offset just past the document's last row (past its header while it
 * has none); -1 before this process's first export. */
long docRowsEnd = -1;
bool docHasRows = false;

void
appendField(std::ostringstream &os, const char *key, double v, bool &first)
{
    if (!first)
        os << ",";
    first = false;
    os << json::quote(key) << ":" << json::number(v);
}

void
appendField(std::ostringstream &os, const char *key, std::uint64_t v,
            bool &first)
{
    if (!first)
        os << ",";
    first = false;
    os << json::quote(key) << ":" << json::number(v);
}

/**
 * Call @p fn(key, field) for every numeric field of a metrics row, in
 * document order: the one field list that metricsToJson() writes and
 * metricsFromJson() reads back.
 */
template <typename M, typename Fn>
void
forEachNumericField(M &m, Fn &&fn)
{
    fn("instructions", m.instructions);
    fn("cycles", m.cycles);
    fn("accesses", m.accesses);
    fn("ipc", m.ipc);
    fn("msgs_per_kilo_inst", m.msgsPerKiloInst);
    fn("d2m_msgs_per_kilo_inst", m.d2mMsgsPerKiloInst);
    fn("bytes_per_kilo_inst", m.bytesPerKiloInst);
    fn("energy_pj", m.energyPj);
    fn("edp", m.edp);
    fn("l1i_miss_pct", m.l1iMissPct);
    fn("l1d_miss_pct", m.l1dMissPct);
    fn("late_hit_i_pct", m.lateHitIPct);
    fn("late_hit_d_pct", m.lateHitDPct);
    fn("near_hit_ratio_i", m.nearHitRatioI);
    fn("near_hit_ratio_d", m.nearHitRatioD);
    fn("avg_miss_latency", m.avgMissLatency);
    fn("miss_latency_p50", m.missLatencyP50);
    fn("miss_latency_p95", m.missLatencyP95);
    fn("miss_latency_p99", m.missLatencyP99);
    fn("access_latency_p99", m.accessLatencyP99);
    fn("noc_delay_p99", m.nocDelayP99);
    fn("avg_li_hops", m.avgLiHops);
    fn("li_hops_p99", m.liHopsP99);
    fn("invalidations_received", m.invalidationsReceived);
    fn("private_miss_pct", m.privateMissPct);
    fn("dir_or_md3_accesses", m.dirOrMd3Accesses);
    fn("md2_accesses", m.md2Accesses);
    fn("l2_tag_accesses", m.l2TagAccesses);
    fn("llc_tag_accesses", m.llcTagAccesses);
    fn("direct_access_pct", m.directAccessPct);
    fn("ns_local_pct", m.nsLocalPct);
    fn("value_errors", m.valueErrors);
    fn("invariant_errors", m.invariantErrors);
    fn("sim_kips", m.simKips);
    fn("warmup_wall_sec", m.warmupWallSec);
    fn("measure_wall_sec", m.measureWallSec);
}

} // namespace

std::string
metricsToJson(const Metrics &m)
{
    std::ostringstream os;
    os << "{" << json::quote("config") << ":" << json::quote(m.config)
       << "," << json::quote("suite") << ":" << json::quote(m.suite) << ","
       << json::quote("benchmark") << ":" << json::quote(m.benchmark);
    bool first = false;
    forEachNumericField(m, [&](const char *key, auto value) {
        appendField(os, key, value, first);
    });
    // Campaign outcome fields only appear on non-ok rows: "ok" rows
    // stay byte-identical to the historical format, and the string
    // fields carry no numeric signal for stats_diff baselines.
    if (m.status != "ok") {
        os << "," << json::quote("status") << ":"
           << json::quote(m.status) << "," << json::quote("error") << ":"
           << json::quote(m.errorMessage);
    }
    os << "}";
    return os.str();
}

bool
metricsFromJson(const json::Value &v, Metrics *out)
{
    if (!v.isObject())
        return false;
    auto getStr = [&](const char *key, std::string &dst) {
        const json::Value &f = v[key];
        if (f.kind == json::Value::Kind::String)
            dst = f.asString();
    };
    getStr("config", out->config);
    getStr("suite", out->suite);
    getStr("benchmark", out->benchmark);
    getStr("status", out->status);
    getStr("error", out->errorMessage);
    forEachNumericField(*out, [&](const char *key, auto &field) {
        const json::Value &f = v[key];
        if (f.kind == json::Value::Kind::Number) {
            field =
                static_cast<std::remove_reference_t<decltype(field)>>(
                    f.asNumber());
        }
    });
    return true;
}

const std::string &
resultsJsonPath()
{
    static const std::string path = [] {
        const char *p = std::getenv("D2M_STATS_JSON");
        return std::string(p ? p : "");
    }();
    return path;
}

std::string
buildRunRow(const Metrics &m, MemorySystem &system,
            const obs::StatSnapshotter *intervals,
            const std::string &selfprof)
{
    std::ostringstream stats;
    system.printJson(stats);
    std::string row = "{\"config\":" + json::quote(m.config) +
                      ",\"suite\":" + json::quote(m.suite) +
                      ",\"benchmark\":" + json::quote(m.benchmark) +
                      ",\"metrics\":" + metricsToJson(m) +
                      ",\"stats\":" + stats.str();
    if (intervals)
        row += ",\"intervals\":" + intervals->rowsJson();
    if (!selfprof.empty())
        row += ",\"selfprof\":" + selfprof;
    row += "}";
    return row;
}

std::string
buildFailureRow(const Metrics &m)
{
    return "{\"config\":" + json::quote(m.config) +
           ",\"suite\":" + json::quote(m.suite) +
           ",\"benchmark\":" + json::quote(m.benchmark) +
           ",\"status\":" + json::quote(m.status) +
           ",\"error\":" + json::quote(m.errorMessage) +
           ",\"metrics\":" + metricsToJson(m) + "}";
}

void
exportRowsJson(const std::vector<std::string> &rows)
{
    const std::string &path = resultsJsonPath();
    if (path.empty())
        return;

    std::lock_guard<std::mutex> lock(docMutex);
    // The first export creates the document. Later ones write their
    // rows over its trailer and end with a new one, which is never
    // shorter, so the file is a complete document after every export.
    std::FILE *f = std::fopen(path.c_str(), docRowsEnd < 0 ? "w" : "r+");
    if (!f) {
        warn_once("cannot open D2M_STATS_JSON file '%s'", path.c_str());
        return;
    }
    if (docRowsEnd < 0)
        std::fputs("{\"runs\":[\n", f);
    else
        std::fseek(f, docRowsEnd, SEEK_SET);
    for (const std::string &row : rows) {
        if (row.empty())
            continue;
        if (docHasRows)
            std::fputs(",\n", f);
        std::fputs(row.c_str(), f);
        docHasRows = true;
    }
    docRowsEnd = std::ftell(f);
    std::fputs(docHasRows ? "\n]}\n" : "]}\n", f);
    std::fclose(f);
}

} // namespace d2m
