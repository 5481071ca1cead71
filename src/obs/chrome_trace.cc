#include "obs/chrome_trace.hh"

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <istream>
#include <ostream>
#include <set>
#include <vector>

#include "common/logging.hh"
#include "obs/json.hh"

namespace d2m::obs
{

namespace
{

// Process ids of the three timeline tracks (see header).
constexpr int kPidCores = 1;
constexpr int kPidNoc = 2;
constexpr int kPidSim = 4;

struct Event
{
    std::uint64_t ts = 0;
    std::string body;  //!< Full JSON object text.
};

std::uint64_t
u64Field(const json::Value &rec, const char *key)
{
    return static_cast<std::uint64_t>(rec[key].asNumber());
}

/** Common "pid/tid/ts" prefix of one event object. */
std::string
head(const char *ph, int pid, std::uint64_t tid, std::uint64_t ts,
     const char *name, const char *cat)
{
    std::string out = "{\"ph\":\"";
    out += ph;
    out += "\",\"pid\":" + json::number(static_cast<std::uint64_t>(pid));
    out += ",\"tid\":" + json::number(tid);
    out += ",\"ts\":" + json::number(ts);
    out += ",\"name\":" + json::quote(name);
    out += ",\"cat\":" + json::quote(cat);
    return out;
}

void
metaEvent(std::ostream &out, int pid, std::uint64_t tid,
          const char *which, const std::string &value, bool &first)
{
    if (!first)
        out << ",\n";
    first = false;
    out << "{\"ph\":\"M\",\"pid\":" << pid << ",\"tid\":" << tid
        << ",\"ts\":0,\"name\":" << json::quote(which)
        << ",\"args\":{\"name\":" << json::quote(value) << "}}";
}

} // namespace

bool
chromeTraceFromJsonl(std::istream &in, std::ostream &out,
                     std::string &err)
{
    std::vector<Event> events;
    std::set<std::uint64_t> coreTids;
    std::set<std::uint64_t> nocTids;
    bool sawSim = false;

    std::string line;
    std::size_t lineno = 0;
    while (std::getline(in, line)) {
        ++lineno;
        if (line.empty())
            continue;
        json::Value rec;
        std::string perr;
        if (!json::parse(line, rec, perr)) {
            err = "line " + std::to_string(lineno) + ": " + perr;
            return false;
        }
        if (!rec.isObject()) {
            err = "line " + std::to_string(lineno) +
                  ": not a JSON object";
            return false;
        }
        const std::uint64_t ts = u64Field(rec, "tick");
        const std::string &kind = rec["kind"].asString();
        Event ev;
        ev.ts = ts;

        if (kind == "access_complete") {
            const std::uint64_t node = u64Field(rec, "node");
            const std::uint64_t lat = u64Field(rec, "lat");
            const bool miss = u64Field(rec, "l1_miss") != 0;
            coreTids.insert(node);
            ev.body = head("X", kPidCores, node, ts,
                           miss ? "miss" : "hit", "mem");
            ev.body += ",\"dur\":" + json::number(lat);
            ev.body += ",\"args\":{\"line\":" +
                       json::number(u64Field(rec, "line")) +
                       ",\"lat\":" + json::number(lat) + "}}";
        } else if (kind == "li_hop") {
            const std::uint64_t node = u64Field(rec, "node");
            coreTids.insert(node);
            ev.body = head("i", kPidCores, node, ts, "li_hop", "md");
            ev.body += ",\"s\":\"t\",\"args\":{\"line\":" +
                       json::number(u64Field(rec, "line")) +
                       ",\"li\":" + json::number(u64Field(rec, "li")) +
                       ",\"target\":" +
                       json::number(u64Field(rec, "target")) + "}}";
        } else if (kind == "region_class") {
            const std::uint64_t node = u64Field(rec, "node");
            coreTids.insert(node);
            ev.body = head("i", kPidCores, node, ts, "reclass",
                           "region");
            ev.body += ",\"s\":\"t\",\"args\":{\"region\":" +
                       json::number(u64Field(rec, "region")) +
                       ",\"shared\":" +
                       json::number(u64Field(rec, "shared")) +
                       ",\"was\":" + json::number(u64Field(rec, "was")) +
                       "}}";
        } else if (kind == "coh_upgrade" || kind == "coh_downgrade") {
            const std::uint64_t node = u64Field(rec, "node");
            coreTids.insert(node);
            const bool up = kind == "coh_upgrade";
            ev.body = head("i", kPidCores, node, ts,
                           up ? "upgrade" : "inv", "coherence");
            ev.body += ",\"s\":\"t\",\"args\":{\"line\":" +
                       json::number(u64Field(rec, "line"));
            if (up) {
                ev.body += ",\"proto_case\":" +
                           json::number(u64Field(rec, "proto_case"));
            } else {
                ev.body += ",\"false_inv\":" +
                           json::number(u64Field(rec, "false_inv"));
            }
            ev.body += "}}";
        } else if (kind == "noc_send") {
            const std::uint64_t src = u64Field(rec, "src");
            const std::uint64_t dst = u64Field(rec, "dst");
            // Sends render on the source endpoint's track.
            nocTids.insert(src);
            const std::string &msg = rec["msg"].asString();
            ev.body = head("i", kPidNoc, src, ts, msg.c_str(), "noc");
            ev.body += ",\"s\":\"t\",\"args\":{\"src\":" +
                       json::number(src) + ",\"dst\":" +
                       json::number(dst) + ",\"bytes\":" +
                       json::number(u64Field(rec, "bytes")) + "}}";
        } else if (kind == "stats_reset" || kind == "run_end") {
            sawSim = true;
            ev.body = head("i", kPidSim, 0, ts, kind.c_str(), "sim");
            ev.body += ",\"s\":\"g\"";
            if (kind == "run_end") {
                ev.body += ",\"args\":{\"insts\":" +
                           json::number(u64Field(rec, "insts")) +
                           ",\"accesses\":" +
                           json::number(u64Field(rec, "accesses")) + "}";
            }
            ev.body += "}";
        } else if (kind == "heartbeat") {
            sawSim = true;
            ev.body = head("C", kPidSim, 0, ts, "sim_rate", "sim");
            ev.body += ",\"args\":{\"kips\":" +
                       json::number(u64Field(rec, "kips")) + "}}";
        } else if (kind == "selfprof") {
            // One counter track per profiled site: its cumulative
            // self samples at each heartbeat.
            sawSim = true;
            const std::string name =
                "selfprof_" + rec["site"].asString();
            ev.body = head("C", kPidSim, 0, ts, name.c_str(), "sim");
            ev.body += ",\"args\":{\"samples\":" +
                       json::number(u64Field(rec, "samples")) + "}}";
        } else {
            // access_issue duplicates the completion slice; unknown
            // kinds from newer traces are skipped, not an error.
            continue;
        }
        events.push_back(std::move(ev));
    }

    // Stable sort by timestamp: per-(pid, tid) track order becomes
    // monotonically non-decreasing, which Perfetto requires for
    // well-formed slice nesting.
    std::stable_sort(events.begin(), events.end(),
                     [](const Event &a, const Event &b) {
                         return a.ts < b.ts;
                     });

    out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
    bool first = true;
    if (!coreTids.empty()) {
        metaEvent(out, kPidCores, 0, "process_name", "cores", first);
        for (std::uint64_t tid : coreTids) {
            metaEvent(out, kPidCores, tid, "thread_name",
                      "core" + std::to_string(tid), first);
        }
    }
    if (!nocTids.empty()) {
        metaEvent(out, kPidNoc, 0, "process_name", "noc", first);
        for (std::uint64_t tid : nocTids) {
            metaEvent(out, kPidNoc, tid, "thread_name",
                      "ep" + std::to_string(tid), first);
        }
    }
    if (sawSim)
        metaEvent(out, kPidSim, 0, "process_name", "sim", first);
    for (const Event &ev : events) {
        if (!first)
            out << ",\n";
        first = false;
        out << ev.body;
    }
    out << "\n]}\n";
    return true;
}

bool
convertTraceFile(const std::string &jsonl_path,
                 const std::string &out_path, std::string &err)
{
    std::ifstream in(jsonl_path);
    if (!in) {
        err = "cannot open trace file \"" + jsonl_path + "\"";
        return false;
    }
    std::ofstream out(out_path);
    if (!out) {
        err = "cannot open output file \"" + out_path + "\"";
        return false;
    }
    return chromeTraceFromJsonl(in, out, err);
}

} // namespace d2m::obs
