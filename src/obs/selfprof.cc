#include "obs/selfprof.hh"

#include <algorithm>

#include "common/env.hh"
#include "common/logging.hh"
#include "obs/json.hh"
#include "obs/trace.hh"

namespace d2m::obs
{

constinit thread_local std::uint64_t sitePath = 0;

namespace
{

constexpr const char *kSiteNames[] = {
    "kernel",
    "sched",        "workload",     "translate",  "core_model",
    "mem_access",   "md_lookup",    "md3",        "md3_evict",
    "region_evict", "md2_victim",   "md1_promote", "service_line",
    "fetch_master", "coh_upgrade",  "invalidate", "dir_protocol",
    "noc_send",     "memory",       "value_check", "invariants",
    "snapshot",
};
static_assert(sizeof(kSiteNames) / sizeof(kSiteNames[0]) ==
              static_cast<std::size_t>(ProfSite::NUM_SITES));

constexpr std::uint64_t kSiteMask = (1u << kSiteBits) - 1;

using PathCounts = FlatMap<std::uint64_t, std::uint64_t>;

/** Sites of @p path, outermost first. Stops at a slot that names no
 * site, which only a path deeper than the word can hold produces. */
std::vector<ProfSite>
pathSites(std::uint64_t path)
{
    std::vector<ProfSite> sites;
    for (; path; path >>= kSiteBits) {
        const std::uint64_t code = path & kSiteMask;
        if (code == 0 || code > static_cast<std::uint64_t>(
                                    ProfSite::NUM_SITES)) {
            break;
        }
        sites.push_back(static_cast<ProfSite>(code - 1));
    }
    std::reverse(sites.begin(), sites.end());
    return sites;
}

std::uint64_t
totalSamples(const PathCounts &counts)
{
    std::uint64_t n = 0;
    for (const auto &[path, c] : counts)
        n += c;
    return n;
}

/** Tree of @p counts, parents before children, siblings in site-enum
 * order: inserting the paths in lexicographic order creates the nodes
 * in exactly that pre-order. Nodes link by index, never by pointer,
 * because push_back moves them. */
std::vector<SelfProfiler::Node>
buildTree(const PathCounts &counts)
{
    std::vector<std::pair<std::vector<ProfSite>, std::uint64_t>> paths;
    for (const auto &[path, c] : counts) {
        if (path)
            paths.emplace_back(pathSites(path), c);
    }
    std::sort(paths.begin(), paths.end());

    std::vector<SelfProfiler::Node> nodes;
    for (const auto &[sites, c] : paths) {
        std::int32_t parent = -1;
        for (ProfSite site : sites) {
            auto idx = static_cast<std::int32_t>(nodes.size()) - 1;
            while (idx >= 0 && (nodes[idx].parent != parent ||
                                nodes[idx].site != site)) {
                --idx;
            }
            if (idx < 0) {
                idx = static_cast<std::int32_t>(nodes.size());
                nodes.push_back({site, parent});
            }
            nodes[idx].samples += c;
            parent = idx;
        }
        if (parent >= 0)
            nodes[parent].selfSamples += c;
    }
    return nodes;
}

} // namespace

const char *
profSiteName(ProfSite s)
{
    return kSiteNames[static_cast<std::size_t>(s)];
}

std::string
profPathName(std::uint64_t path)
{
    std::string name;
    for (ProfSite site : pathSites(path)) {
        if (!name.empty())
            name += '/';
        name += profSiteName(site);
    }
    return name;
}

std::unique_ptr<SelfProfiler>
SelfProfiler::fromEnv()
{
    if (envU64("D2M_SELFPROF", 0) == 0)
        return nullptr;
    return std::make_unique<SelfProfiler>();
}

SelfProfiler::SelfProfiler() : target_(&sitePath)
{
    sampler_ = std::thread([this] { sampleLoop(); });
}

void
SelfProfiler::sampleLoop()
{
    while (!stopping_.load(std::memory_order_relaxed)) {
        std::this_thread::sleep_for(kSamplePeriod);
        // Read under the lock, so a sample is either wholly before or
        // wholly after a phaseReset().
        std::lock_guard<std::mutex> lock(mu_);
        ++counts_[__atomic_load_n(target_, __ATOMIC_RELAXED)];
    }
}

void
SelfProfiler::phaseReset()
{
    std::lock_guard<std::mutex> lock(mu_);
    counts_.clear();
}

void
SelfProfiler::stop()
{
    stopping_.store(true, std::memory_order_relaxed);
    if (sampler_.joinable())
        sampler_.join();
}

FlatMap<std::uint64_t, std::uint64_t>
SelfProfiler::countsCopy() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return counts_;
}

std::uint64_t
SelfProfiler::samples() const
{
    return totalSamples(countsCopy());
}

std::vector<SelfProfiler::Node>
SelfProfiler::tree() const
{
    return buildTree(countsCopy());
}

std::string
SelfProfiler::wallJson(double total_sec) const
{
    const PathCounts counts = countsCopy();
    const std::uint64_t total = totalSamples(counts);
    const std::vector<Node> nodes = buildTree(counts);
    const double sec_per_sample = total ? total_sec / total : 0.0;
    std::uint64_t attributed_samples = 0;
    for (const Node &n : nodes) {
        if (n.parent < 0)
            attributed_samples += n.samples;
    }
    const double attributed = attributed_samples * sec_per_sample;
    const double unattributed =
        total ? (total - attributed_samples) * sec_per_sample : total_sec;
    const double coverage =
        total ? 100.0 * attributed_samples / total : 0.0;
    auto us = [&](std::uint64_t samples) {
        return json::number(static_cast<std::uint64_t>(
            samples * sec_per_sample * 1e6));
    };

    std::string out = "{\"total_sec\":" + json::number(total_sec) +
                      ",\"attributed_sec\":" + json::number(attributed) +
                      ",\"unattributed_sec\":" +
                      json::number(unattributed) +
                      ",\"coverage_pct\":" + json::number(coverage) +
                      ",\"samples\":" + json::number(total) +
                      ",\"tree\":";
    auto emitLevel = [&](auto &&self, std::int32_t parent) -> std::string {
        std::string arr = "[";
        for (std::size_t i = 0; i < nodes.size(); ++i) {
            if (nodes[i].parent != parent)
                continue;
            if (arr.size() > 1)
                arr += ",";
            arr += "{\"site\":";
            arr += json::quote(profSiteName(nodes[i].site));
            arr += ",\"incl_us\":" + us(nodes[i].samples);
            arr += ",\"self_us\":" + us(nodes[i].selfSamples);
            arr += ",\"samples\":" + json::number(nodes[i].samples);
            arr += ",\"children\":";
            arr += self(self, static_cast<std::int32_t>(i));
            arr += "}";
        }
        arr += "]";
        return arr;
    };
    out += emitLevel(emitLevel, -1);
    out += "}";
    return out;
}

std::string
SelfProfiler::table(double total_sec) const
{
    const PathCounts counts = countsCopy();
    const std::uint64_t total = totalSamples(counts);
    const std::vector<Node> nodes = buildTree(counts);
    const double share = total ? 1.0 / total : 0.0;

    struct Row
    {
        std::string path;
        const Node *node;
    };
    std::vector<Row> rows;
    std::uint64_t attributed = 0;
    for (const Node &n : nodes) {
        std::string path = profSiteName(n.site);
        if (n.parent >= 0)
            path = rows[n.parent].path + "/" + path;
        else
            attributed += n.samples;
        rows.push_back({std::move(path), &n});
    }
    std::sort(rows.begin(), rows.end(), [](const Row &a, const Row &b) {
        if (a.node->selfSamples != b.node->selfSamples)
            return a.node->selfSamples > b.node->selfSamples;
        return a.path < b.path;
    });

    std::string out = vformat(
        "selfprof: measure wall %.3fs, %llu samples, attributed "
        "%.1f%%, unattributed %.3fs\n",
        total_sec, static_cast<unsigned long long>(total),
        100.0 * attributed * share,
        total_sec * (1.0 - attributed * share));
    out += vformat("  %7s %7s %10s  %s\n", "self%", "incl%", "samples",
                   "path");
    for (const Row &r : rows) {
        out += vformat("  %7.1f %7.1f %10llu  %s\n",
                       100.0 * r.node->selfSamples * share,
                       100.0 * r.node->samples * share,
                       static_cast<unsigned long long>(r.node->samples),
                       r.path.c_str());
    }
    return out;
}

void
SelfProfiler::emitTraceCounters() const
{
    // Self samples per site across every path it ends (the innermost,
    // low slot), so the counter tracks sum to the attributed samples.
    std::uint64_t self[static_cast<std::size_t>(ProfSite::NUM_SITES)] = {};
    for (const auto &[path, c] : countsCopy()) {
        if (path)
            self[(path & kSiteMask) - 1] += c;
    }
    for (std::size_t s = 0;
         s < static_cast<std::size_t>(ProfSite::NUM_SITES); ++s) {
        if (self[s] > 0)
            traceEvent(TraceKind::SelfProf, 0, s, self[s]);
    }
}

} // namespace d2m::obs
