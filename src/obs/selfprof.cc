#include "obs/selfprof.hh"

#include <algorithm>

#include "common/env.hh"
#include "common/logging.hh"
#include "obs/json.hh"
#include "obs/trace.hh"

namespace d2m::obs
{

thread_local SelfProfiler *activeSelfProf = nullptr;

namespace
{

constexpr const char *kSiteNames[] = {
    "kernel",
    "sched",        "workload",    "translate",  "core_model",
    "mem_access",   "md_lookup",   "md3",        "service_line",
    "fetch_master", "coh_upgrade", "invalidate", "dir_protocol",
    "noc_send",     "memory",      "value_check", "invariants",
    "snapshot",
};
static_assert(sizeof(kSiteNames) / sizeof(kSiteNames[0]) ==
              static_cast<std::size_t>(ProfSite::NUM_SITES));

std::uint64_t
toUs(std::uint64_t ns)
{
    return ns / 1000;
}

} // namespace

const char *
profSiteName(ProfSite s)
{
    return kSiteNames[static_cast<std::size_t>(s)];
}

std::unique_ptr<SelfProfiler>
SelfProfiler::fromEnv()
{
    if (envU64("D2M_SELFPROF", 0) == 0)
        return nullptr;
    return std::make_unique<SelfProfiler>(envU64("D2M_SELFPROF_TOP", 10));
}

void
SelfProfiler::phaseReset()
{
    // Zero time/counts but keep the node table: open frames (none in
    // the run loop at the warmup boundary, but possible for ad-hoc
    // users) keep valid node indices either way.
    for (Node &n : nodes_) {
        n.ns = 0;
        n.calls = 0;
    }
}

void
SelfProfiler::enter(ProfSite site)
{
    // Stamp before the child search so the profiler's own bookkeeping
    // is attributed to the scope being opened rather than falling into
    // the unattributed gap between scopes.
    const Clock::time_point t0 = Clock::now();
    const std::int32_t parent =
        stack_.empty() ? -1 : stack_.back().node;
    std::int32_t idx = parent < 0 ? rootFirst_
                                  : nodes_[parent].firstChild;
    std::int32_t prev = -1;
    while (idx >= 0 && nodes_[idx].site != site) {
        prev = idx;
        idx = nodes_[idx].nextSibling;
    }
    if (idx < 0) {
        idx = static_cast<std::int32_t>(nodes_.size());
        nodes_.push_back({site, parent, 0, 0, -1, -1});
        if (prev >= 0)
            nodes_[prev].nextSibling = idx;
        else if (parent >= 0)
            nodes_[parent].firstChild = idx;
        else
            rootFirst_ = idx;
    }
    stack_.push_back({idx, t0});
}

void
SelfProfiler::leave()
{
    panic_if(stack_.empty(), "ProfScope leave() with no open frame");
    const Frame f = stack_.back();
    stack_.pop_back();
    nodes_[f.node].ns += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now() - f.t0)
            .count());
    ++nodes_[f.node].calls;
}

std::uint64_t
SelfProfiler::selfNs(std::size_t i) const
{
    std::uint64_t children = 0;
    for (std::int32_t c = nodes_[i].firstChild; c >= 0;
         c = nodes_[c].nextSibling) {
        children += nodes_[c].ns;
    }
    const std::uint64_t incl = nodes_[i].ns;
    return incl > children ? incl - children : 0;
}

std::uint64_t
SelfProfiler::attributedNs() const
{
    std::uint64_t total = 0;
    for (std::int32_t c = rootFirst_; c >= 0; c = nodes_[c].nextSibling)
        total += nodes_[c].ns;
    return total;
}

namespace
{

/** Child indices of @p first-chain with calls, in site-enum order. */
std::vector<std::int32_t>
orderedChildren(const std::vector<SelfProfiler::Node> &nodes,
                std::int32_t first)
{
    std::vector<std::int32_t> kids;
    for (std::int32_t c = first; c >= 0; c = nodes[c].nextSibling) {
        if (nodes[c].calls > 0)
            kids.push_back(c);
    }
    std::sort(kids.begin(), kids.end(),
              [&](std::int32_t a, std::int32_t b) {
                  return nodes[a].site < nodes[b].site;
              });
    return kids;
}

} // namespace

std::string
SelfProfiler::wallJson(double total_sec) const
{
    const double attributed =
        static_cast<double>(attributedNs()) / 1e9;
    const double unattributed =
        total_sec > attributed ? total_sec - attributed : 0.0;
    const double coverage =
        total_sec > 0 ? 100.0 * attributed / total_sec : 0.0;

    std::string out = "{\"total_sec\":" + json::number(total_sec) +
                      ",\"attributed_sec\":" + json::number(attributed) +
                      ",\"unattributed_sec\":" +
                      json::number(unattributed) +
                      ",\"coverage_pct\":" + json::number(coverage) +
                      ",\"tree\":";

    // Recursive emission without actual recursion state on the C++
    // stack beyond the lambda: trees are a few levels deep.
    auto emitLevel = [&](auto &&self, std::int32_t first) -> std::string {
        std::string arr = "[";
        bool firstKid = true;
        for (std::int32_t c : orderedChildren(nodes_, first)) {
            if (!firstKid)
                arr += ",";
            firstKid = false;
            arr += "{\"site\":";
            arr += json::quote(profSiteName(nodes_[c].site));
            arr += ",\"incl_us\":" + json::number(toUs(nodes_[c].ns));
            arr += ",\"self_us\":" +
                   json::number(toUs(selfNs(static_cast<std::size_t>(c))));
            arr += ",\"calls\":" + json::number(nodes_[c].calls);
            arr += ",\"children\":";
            arr += self(self, nodes_[c].firstChild);
            arr += "}";
        }
        arr += "]";
        return arr;
    };
    out += emitLevel(emitLevel, rootFirst_);
    out += "}";
    return out;
}

std::string
SelfProfiler::topTable(double total_sec) const
{
    struct Row
    {
        std::string path;
        double selfSec;
        double inclSec;
        std::uint64_t calls;
    };
    std::vector<Row> rows;
    auto walk = [&](auto &&self, std::int32_t first,
                    const std::string &prefix) -> void {
        for (std::int32_t c : orderedChildren(nodes_, first)) {
            const std::string path =
                prefix.empty()
                    ? profSiteName(nodes_[c].site)
                    : prefix + "/" + profSiteName(nodes_[c].site);
            rows.push_back(
                {path,
                 static_cast<double>(selfNs(static_cast<std::size_t>(c))) /
                     1e9,
                 static_cast<double>(nodes_[c].ns) / 1e9,
                 nodes_[c].calls});
            self(self, nodes_[c].firstChild, path);
        }
    };
    walk(walk, rootFirst_, "");
    std::sort(rows.begin(), rows.end(), [](const Row &a, const Row &b) {
        if (a.selfSec != b.selfSec)
            return a.selfSec > b.selfSec;
        return a.path < b.path;
    });

    const double attributed =
        static_cast<double>(attributedNs()) / 1e9;
    const double coverage =
        total_sec > 0 ? 100.0 * attributed / total_sec : 0.0;
    std::string out = vformat(
        "selfprof: measure wall %.3fs, attributed %.3fs (%.1f%%), "
        "unattributed %.3fs\n",
        total_sec, attributed, coverage,
        total_sec > attributed ? total_sec - attributed : 0.0);
    out += vformat("  %10s %10s %12s  %s\n", "self_s", "incl_s",
                   "calls", "site");
    const std::size_t limit =
        std::min<std::size_t>(rows.size(), topN_ ? topN_ : rows.size());
    for (std::size_t i = 0; i < limit; ++i) {
        out += vformat("  %10.3f %10.3f %12llu  %s\n", rows[i].selfSec,
                       rows[i].inclSec,
                       static_cast<unsigned long long>(rows[i].calls),
                       rows[i].path.c_str());
    }
    return out;
}

void
SelfProfiler::emitTraceCounters() const
{
    // Aggregate per site across every tree position (a site can recur
    // at several depths): cumulative SELF-time so the counter tracks
    // sum to the attributed total, not N x the kernel root.
    std::uint64_t ns[static_cast<std::size_t>(ProfSite::NUM_SITES)] = {};
    std::uint64_t calls[static_cast<std::size_t>(ProfSite::NUM_SITES)] =
        {};
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
        const auto s = static_cast<std::size_t>(nodes_[i].site);
        ns[s] += selfNs(i);
        calls[s] += nodes_[i].calls;
    }
    for (std::size_t s = 0;
         s < static_cast<std::size_t>(ProfSite::NUM_SITES); ++s) {
        if (calls[s] == 0)
            continue;
        traceEvent(TraceKind::SelfProf, 0, s, toUs(ns[s]), calls[s]);
    }
}

std::string
selfprofSection(const SelfProfiler *prof, const SelfProfRate &rate)
{
    std::string out =
        "{\"rate\":{\"sim_kips\":" + json::number(rate.simKips) +
        ",\"warmup_wall_sec\":" + json::number(rate.warmupWallSec) +
        ",\"measure_wall_sec\":" + json::number(rate.measureWallSec) +
        ",\"heartbeats\":" + json::number(rate.heartbeats) +
        ",\"heartbeat_period_insts\":" +
        json::number(rate.heartbeatPeriodInsts) + "}";
    if (prof)
        out += ",\"wall\":" + prof->wallJson(rate.measureWallSec);
    out += "}";
    return out;
}

} // namespace d2m::obs
