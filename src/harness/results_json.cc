#include "harness/results_json.hh"

#include <cstdio>
#include <cstdlib>
#include <map>
#include <mutex>
#include <sstream>
#include <vector>

#include "common/logging.hh"
#include "obs/json.hh"

namespace d2m
{

namespace
{

/**
 * Accumulated rows for this process, keyed by output slot. A map
 * (not a vector) because parallel jobs fill reserved slots out of
 * completion order; iteration yields the deterministic serial order.
 * All access happens under runsMutex().
 */
std::map<std::uint64_t, std::string> &
collectedRuns()
{
    static std::map<std::uint64_t, std::string> runs;
    return runs;
}

std::mutex &
runsMutex()
{
    static std::mutex m;
    return m;
}

std::uint64_t nextRunSlot = 0;  //!< Guarded by runsMutex().

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

} // namespace

std::string
metricsToJson(const Metrics &m)
{
    std::ostringstream os;
    os << "{" << json::quote("config") << ":" << json::quote(m.config)
       << "," << json::quote("suite") << ":" << json::quote(m.suite) << ","
       << json::quote("benchmark") << ":" << json::quote(m.benchmark);
    bool first = false;
    appendField(os, "instructions", m.instructions, first);
    appendField(os, "cycles", static_cast<std::uint64_t>(m.cycles), first);
    appendField(os, "accesses", m.accesses, first);
    appendField(os, "ipc", m.ipc, first);
    appendField(os, "msgs_per_kilo_inst", m.msgsPerKiloInst, first);
    appendField(os, "d2m_msgs_per_kilo_inst", m.d2mMsgsPerKiloInst, first);
    appendField(os, "bytes_per_kilo_inst", m.bytesPerKiloInst, first);
    appendField(os, "energy_pj", m.energyPj, first);
    appendField(os, "edp", m.edp, first);
    appendField(os, "l1i_miss_pct", m.l1iMissPct, first);
    appendField(os, "l1d_miss_pct", m.l1dMissPct, first);
    appendField(os, "late_hit_i_pct", m.lateHitIPct, first);
    appendField(os, "late_hit_d_pct", m.lateHitDPct, first);
    appendField(os, "near_hit_ratio_i", m.nearHitRatioI, first);
    appendField(os, "near_hit_ratio_d", m.nearHitRatioD, first);
    appendField(os, "avg_miss_latency", m.avgMissLatency, first);
    appendField(os, "miss_latency_p50", m.missLatencyP50, first);
    appendField(os, "miss_latency_p95", m.missLatencyP95, first);
    appendField(os, "miss_latency_p99", m.missLatencyP99, first);
    appendField(os, "access_latency_p99", m.accessLatencyP99, first);
    appendField(os, "noc_delay_p99", m.nocDelayP99, first);
    appendField(os, "avg_li_hops", m.avgLiHops, first);
    appendField(os, "li_hops_p99", m.liHopsP99, first);
    appendField(os, "invalidations_received", m.invalidationsReceived,
                first);
    appendField(os, "private_miss_pct", m.privateMissPct, first);
    appendField(os, "dir_or_md3_accesses", m.dirOrMd3Accesses, first);
    appendField(os, "md2_accesses", m.md2Accesses, first);
    appendField(os, "l2_tag_accesses", m.l2TagAccesses, first);
    appendField(os, "llc_tag_accesses", m.llcTagAccesses, first);
    appendField(os, "direct_access_pct", m.directAccessPct, first);
    appendField(os, "ns_local_pct", m.nsLocalPct, first);
    appendField(os, "value_errors", m.valueErrors, first);
    appendField(os, "invariant_errors", m.invariantErrors, first);
    appendField(os, "sim_kips", m.simKips, first);
    appendField(os, "warmup_wall_sec", m.warmupWallSec, first);
    appendField(os, "measure_wall_sec", m.measureWallSec, first);
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

namespace
{

struct DoubleField
{
    const char *key;
    double Metrics::*field;
};

struct U64Field
{
    const char *key;
    std::uint64_t Metrics::*field;
};

// Mirrors metricsToJson exactly (cycles handled separately: Tick).
constexpr DoubleField kDoubleFields[] = {
    {"ipc", &Metrics::ipc},
    {"msgs_per_kilo_inst", &Metrics::msgsPerKiloInst},
    {"d2m_msgs_per_kilo_inst", &Metrics::d2mMsgsPerKiloInst},
    {"bytes_per_kilo_inst", &Metrics::bytesPerKiloInst},
    {"energy_pj", &Metrics::energyPj},
    {"edp", &Metrics::edp},
    {"l1i_miss_pct", &Metrics::l1iMissPct},
    {"l1d_miss_pct", &Metrics::l1dMissPct},
    {"late_hit_i_pct", &Metrics::lateHitIPct},
    {"late_hit_d_pct", &Metrics::lateHitDPct},
    {"near_hit_ratio_i", &Metrics::nearHitRatioI},
    {"near_hit_ratio_d", &Metrics::nearHitRatioD},
    {"avg_miss_latency", &Metrics::avgMissLatency},
    {"miss_latency_p50", &Metrics::missLatencyP50},
    {"miss_latency_p95", &Metrics::missLatencyP95},
    {"miss_latency_p99", &Metrics::missLatencyP99},
    {"access_latency_p99", &Metrics::accessLatencyP99},
    {"noc_delay_p99", &Metrics::nocDelayP99},
    {"avg_li_hops", &Metrics::avgLiHops},
    {"li_hops_p99", &Metrics::liHopsP99},
    {"private_miss_pct", &Metrics::privateMissPct},
    {"direct_access_pct", &Metrics::directAccessPct},
    {"ns_local_pct", &Metrics::nsLocalPct},
    {"sim_kips", &Metrics::simKips},
    {"warmup_wall_sec", &Metrics::warmupWallSec},
    {"measure_wall_sec", &Metrics::measureWallSec},
};

constexpr U64Field kU64Fields[] = {
    {"instructions", &Metrics::instructions},
    {"accesses", &Metrics::accesses},
    {"invalidations_received", &Metrics::invalidationsReceived},
    {"dir_or_md3_accesses", &Metrics::dirOrMd3Accesses},
    {"md2_accesses", &Metrics::md2Accesses},
    {"l2_tag_accesses", &Metrics::l2TagAccesses},
    {"llc_tag_accesses", &Metrics::llcTagAccesses},
    {"value_errors", &Metrics::valueErrors},
    {"invariant_errors", &Metrics::invariantErrors},
};

} // namespace

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
    for (const auto &[key, field] : kDoubleFields) {
        const json::Value &f = v[key];
        if (f.kind == json::Value::Kind::Number)
            out->*field = f.asNumber();
    }
    for (const auto &[key, field] : kU64Fields) {
        const json::Value &f = v[key];
        if (f.kind == json::Value::Kind::Number)
            out->*field = static_cast<std::uint64_t>(f.asNumber());
    }
    if (const json::Value &c = v["cycles"];
        c.kind == json::Value::Kind::Number) {
        out->cycles = static_cast<Tick>(c.asNumber());
    }
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

std::uint64_t
reserveRunSlots(std::size_t n)
{
    std::lock_guard<std::mutex> lock(runsMutex());
    const std::uint64_t first = nextRunSlot;
    nextRunSlot += n;
    return first;
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
exportRunJson(const Metrics &m, MemorySystem &system,
              const obs::StatSnapshotter *intervals, std::uint64_t slot)
{
    if (resultsJsonPath().empty())
        return;
    exportRowJson(buildRunRow(m, system, intervals), slot);
}

void
exportRowJson(std::string row, std::uint64_t slot)
{
    const std::string &path = resultsJsonPath();
    if (path.empty() || row.empty())
        return;

    std::lock_guard<std::mutex> lock(runsMutex());
    if (slot == kRunSlotAppend)
        slot = nextRunSlot++;
    collectedRuns()[slot] = std::move(row);

    // Rewrite the whole document so the file is always valid JSON.
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f) {
        warn_once("cannot open D2M_STATS_JSON file '%s'", path.c_str());
        return;
    }
    std::fputs("{\"runs\":[\n", f);
    const auto &runs = collectedRuns();
    std::size_t i = 0;
    for (const auto &[_, run] : runs) {
        std::fputs(run.c_str(), f);
        std::fputs(++i < runs.size() ? ",\n" : "\n", f);
    }
    std::fputs("]}\n", f);
    std::fclose(f);
}

} // namespace d2m
