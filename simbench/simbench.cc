/**
 * @file
 * End-to-end benchmark of the simulator (see README.md beside this
 * file for the workloads, the metrics and the layer map).
 *
 *   simbench --workload <hit_path|miss_path|ref_grid> --seed <n>
 *            --seconds <s> --trace <0|1> [--fail-bench <preset>]
 *
 * --trace 0 repeats the workload's grid through runSweep(), the path
 * every bench binary takes, until --seconds have passed, and prints the
 * end-to-end metrics, with host times scaled by a reference kernel
 * timed between passes. --trace 1 runs every cell twice, once through
 * runMulticore() and once through tracedRun() below, which drives the
 * layers' public calls itself and times a fixed sample of them; it
 * prints the per-layer metrics and fails unless both runs agree.
 *
 * Every metric is printed with its unit, followed by a digest of the
 * simulated statistics; the last line of stdout is one JSON object.
 * The exit code is 1 when any cell failed or disagreed.
 */

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "cpu/multicore.hh"
#include "harness/configs.hh"
#include "harness/metrics.hh"
#include "harness/pool.hh"
#include "harness/results_json.hh"
#include "harness/runner.hh"
#include "mem/golden_memory.hh"
#include "workload/suites.hh"

namespace
{

using namespace d2m;
using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

/** One benchmark workload: a fixed grid of (config x preset) cells. */
struct Workload
{
    const char *name;
    std::vector<ConfigKind> configs;
    /** Preset names; empty = every preset of every suite. */
    std::vector<std::string> presets;
    /** Measured instructions per core; an equal warmup precedes it. */
    std::uint64_t instsPerCore;
    /** Concurrent cells (runSweep jobs). */
    unsigned jobs;
};

const std::vector<Workload> &
workloads()
{
    // The two serial workloads share three configs so that a change
    // to one hierarchy shows against the other two on the same cells.
    const std::vector<ConfigKind> path{ConfigKind::Base2L,
                                       ConfigKind::Base3L,
                                       ConfigKind::D2mNsR};
    static const std::vector<Workload> all{
        // L1-D miss rates of 2-3%: host time is the per-access loop.
        {"hit_path", path, {"blackscholes", "swaptions", "water", "mix1"},
         100'000, 1},
        // MD2 misses (canneal), shared-histogram stores (radix) and a
        // 6 MiB code footprint with NS-LLC replication (tpcc).
        {"miss_path", path, {"canneal", "radix", "tpcc"}, 100'000, 1},
        // The paper's five configs over all 32 presets, one cell per
        // hardware thread: the only grid comparable with its averages.
        {"ref_grid", allConfigs(), {}, 30'000, 4},
    };
    return all;
}

/** Configs whose per-layer metrics go into the JSON: the three that
 * every workload runs. */
const std::vector<ConfigKind> &
reportedConfigs()
{
    return workloads().front().configs;
}

/**
 * The presets of @p w with their stream seeds for benchmark seed
 * @p seed. Seed 0 keeps every preset's own seed; any other value is
 * mixed into each preset's seed (splitmix64), so presets keep distinct
 * streams and a held-out seed gives new ones. Only the generated
 * streams reach the simulator.
 */
std::vector<NamedWorkload>
presetsFor(const Workload &w, std::uint64_t seed)
{
    std::vector<NamedWorkload> out;
    for (auto &wl : allSuites()) {
        if (!w.presets.empty() &&
            std::find(w.presets.begin(), w.presets.end(), wl.name) ==
                w.presets.end()) {
            continue;
        }
        if (seed != 0) {
            std::uint64_t z =
                wl.params.seed + 0x9E3779B97F4A7C15ull * seed;
            z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
            z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
            wl.params.seed = z ^ (z >> 31);
        }
        out.push_back(std::move(wl));
    }
    return out;
}

/** A row's simulated statistics as JSON: host-time fields zeroed, so
 * two runs of the same cell compare as equal strings. */
std::string
simulatedJson(Metrics m)
{
    m.simKips = m.warmupWallSec = m.measureWallSec = 0;
    return metricsToJson(m);
}

/** FNV-1a over the simulated statistics of @p rows, in grid order. */
std::uint64_t
digest(const std::vector<Metrics> &rows)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const auto &m : rows) {
        for (unsigned char c : simulatedJson(m) + "\n") {
            h ^= c;
            h *= 0x100000001b3ull;
        }
    }
    return h;
}

/** Empty when @p m is a clean run; otherwise why it is not. */
std::string
cellError(const Metrics &m)
{
    if (m.status != "ok")
        return m.status + ": " + m.errorMessage;
    if (m.valueErrors || m.invariantErrors) {
        return vformat("%llu value errors, %llu invariant errors",
                       static_cast<unsigned long long>(m.valueErrors),
                       static_cast<unsigned long long>(m.invariantErrors));
    }
    if (m.instructions == 0 || m.accesses == 0)
        return "empty run";
    return "";
}

const Metrics *
findRow(const std::vector<Metrics> &rows, const std::string &bench,
        const char *config)
{
    for (const auto &m : rows)
        if (m.benchmark == bench && m.config == config && m.status == "ok")
            return &m;
    return nullptr;
}

/**
 * D2M-NS-R against Base-2L over the grid, as geomean changes in
 * percent, computed exactly as bench_fig7_speedup (IPC, L1 miss
 * latency) and bench_fig5_traffic (messages/kinst) compute them.
 */
struct Accuracy
{
    double ipcGainPct = 0;
    double trafficChangePct = 0;
    double missLatChangePct = 0;
};

Accuracy
accuracy(const std::vector<Metrics> &rows)
{
    std::vector<double> ipc, msgs, lat;
    for (const auto &m : rows) {
        if (m.config != std::string("Base-2L") || m.status != "ok")
            continue;
        const Metrics *r = findRow(rows, m.benchmark, "D2M-NS-R");
        if (!r)
            continue;
        if (m.ipc > 0)
            ipc.push_back(r->ipc / m.ipc);
        if (m.msgsPerKiloInst > 0)
            msgs.push_back(r->msgsPerKiloInst / m.msgsPerKiloInst);
        if (m.avgMissLatency > 0)
            lat.push_back(r->avgMissLatency / m.avgMissLatency);
    }
    return {100.0 * (geomean(ipc) - 1), 100.0 * (geomean(msgs) - 1),
            100.0 * (geomean(lat) - 1)};
}

/** The paper's averages (Fig. 7, Fig. 5, Section V-D). */
constexpr double kPaperIpcGainPct = 8.5;
constexpr double kPaperTrafficChangePct = -70.0;
constexpr double kPaperMissLatChangePct = -30.0;

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const std::size_t h = v.size() / 2;
    return v.size() % 2 ? v[h] : 0.5 * (v[h - 1] + v[h]);
}

double
peakRssMib()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

/**
 * Host time of a fixed reference kernel: a small cache model (four
 * 8-way L1s and a shared 16-way L2 with LRU stamps, plus an ordered-map
 * directory) driven by a fixed address stream. It is the benchmark's
 * own code and never changes with the simulator. Other tenants of a
 * shared host slow it about as much as they slow the simulator (its
 * caches, branches and allocator), so it measures how fast the host
 * runs simulator-like code at the moment.
 */
double
referenceKernelSeconds()
{
    struct Way
    {
        std::uint64_t tag;
        std::uint32_t stamp;
    };
    const auto t0 = Clock::now();
    std::vector<Way> l1(4 * 64 * 8, {~0ull, 0}), l2(4096 * 16, {~0ull, 0});
    std::map<std::uint64_t, std::uint32_t> dir;
    std::uint32_t now = 0;
    auto lookup = [&now](Way *set, unsigned ways, std::uint64_t tag) {
        unsigned victim = 0;
        for (unsigned w = 0; w < ways; ++w) {
            if (set[w].tag == tag) {
                set[w].stamp = ++now;
                return true;
            }
            if (set[w].stamp < set[victim].stamp)
                victim = w;
        }
        set[victim] = {tag, ++now};
        return false;
    };
    std::uint64_t s = 7, hits = 0;
    for (int i = 0; i < 300'000; ++i) {
        s = s * 6364136223846793005ull + 1442695040888963407ull;
        const unsigned core = (s >> 60) & 3;
        // Seven in eight accesses go to 512 hot lines, the rest to 1 Mi.
        const std::uint64_t line =
            (s >> 40) & 7 ? (s >> 20) & 511 : (s >> 20) & ((1u << 20) - 1);
        if (lookup(&l1[(core * 64 + (line & 63)) * 8], 8, line)) {
            ++hits;
        } else if (!lookup(&l2[(line & 4095) * 16], 16, line)) {
            dir[line] |= 1u << core;
            if (dir.size() > 100'000)
                dir.erase(dir.begin());
        }
    }
    volatile std::uint64_t keep = hits;  // So the loop is not elided.
    (void)keep;
    return secondsSince(t0);
}

/** The reference kernel's best time on the reference host (see
 * README.md). Host times are reported scaled to that host's speed. */
constexpr double kReferenceKernelSec = 0.0170;

/** What one invocation measured, printed by main(). */
struct Outcome
{
    std::vector<Metric> json;   //!< The metrics the JSON line carries.
    std::vector<Metric> extra;  //!< Printed only.
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::uint64_t digest = 0;
    std::vector<std::string> errors;
};

// --------------------------------------------------------------------
// --trace 0: end-to-end metrics through the sweep harness.

/** Reference-grid cells are checked for invariants this often (in
 * accesses), a few times per cell, so a corrupt hierarchy fails the
 * run. The timed passes skip the check, as the figure sweeps do. */
constexpr std::uint64_t kInvariantPeriod = 1 << 16;

/** Fewest set-up repetitions; setup_s is their median. */
constexpr std::size_t kMinSetupReps = 11;

/** Reference kernel timings before every pass, and fewest in a run. */
constexpr std::size_t kKernelRepsPerPass = 4;
constexpr std::size_t kMinKernelReps = 15;

/** The reference grid's run length and jobs: bench_fig5_traffic's and
 * bench_fig7_speedup's defaults. */
constexpr std::uint64_t kReferenceInstsPerCore = 100'000;
constexpr unsigned kReferenceJobs = 4;

/**
 * Set-up time of one grid: building the preset list plus, for every
 * cell, makeSystem() and makeStreams() as runSweep() calls them.
 * Destruction is not counted.
 */
double
setupSeconds(const Workload &w, std::uint64_t seed)
{
    auto t0 = Clock::now();
    const auto presets = presetsFor(w, seed);
    double total = secondsSince(t0);
    for (const auto &wl : presets) {
        for (ConfigKind kind : w.configs) {
            t0 = Clock::now();
            auto system = makeSystem(kind);
            auto streams =
                makeStreams(wl, system->params().numNodes,
                            system->params().lineSize, 2 * w.instsPerCore);
            total += secondsSince(t0);
        }
    }
    return total;
}

SweepOptions
sweepOptions(std::uint64_t instsPerCore, unsigned jobs)
{
    SweepOptions opts;
    opts.instsPerCore = instsPerCore;
    opts.warmupInstsPerCore = instsPerCore;
    opts.verbose = false;
    opts.jobs = jobs;
    opts.runTimeoutMs = 0;
    opts.runRetries = 0;
    return opts;
}

/** Count @p rows and their failures into @p out. */
void
checkRows(const std::vector<Metrics> &rows, Outcome &out)
{
    for (const auto &m : rows) {
        ++out.attempted;
        if (const std::string e = cellError(m); !e.empty()) {
            ++out.failed;
            out.errors.push_back(m.benchmark + " on " + m.config + ": " + e);
        }
    }
}

Outcome
runUntraced(const Workload &w, std::uint64_t seed, double seconds,
            const std::string &failBench)
{
    Outcome out;
    const auto presets = presetsFor(w, seed);
    SweepOptions opts = sweepOptions(w.instsPerCore, w.jobs);
    if (!failBench.empty()) {
        opts.preRunHook = [&failBench](const NamedWorkload &wl, unsigned) {
            if (wl.name == failBench)
                fatal("forced failure of %s (--fail-bench)",
                      wl.name.c_str());
        };
    }

    // Load from elsewhere on the host only ever slows a cell down, and
    // it comes in bursts shorter than a pass, so each cell counts with
    // its best pass (best of N). A whole pass is rarely free of bursts,
    // so wall_s is composed the same way: every cell's best warmup and
    // measured phase, divided over the jobs, plus the smallest rest of
    // a pass (set-up, metrics collection, pool).
    // Set-up is timed once before every pass, so its median samples
    // the whole run rather than one burst.
    // Load that lasts a whole run is taken out with the reference
    // kernel, timed between passes the same way (best of N).
    std::vector<std::vector<double>> cellSec, cellRunSec;
    std::vector<double> rest, setup, kernel;
    std::vector<Metrics> first;
    const auto t0 = Clock::now();
    do {
        for (std::size_t k = 0; k < kKernelRepsPerPass; ++k)
            kernel.push_back(referenceKernelSeconds());
        setup.push_back(setupSeconds(w, seed));
        const auto tp = Clock::now();
        auto rows = runSweep(w.configs, presets, opts);
        double pass = secondsSince(tp);
        checkRows(rows, out);
        cellSec.resize(rows.size());
        cellRunSec.resize(rows.size());
        for (std::size_t i = 0; i < rows.size(); ++i) {
            const double run =
                rows[i].warmupWallSec + rows[i].measureWallSec;
            cellSec[i].push_back(rows[i].measureWallSec);
            cellRunSec[i].push_back(run);
            pass -= run / w.jobs;
        }
        rest.push_back(pass);
        if (first.empty()) {
            first = std::move(rows);
            out.digest = digest(first);
        } else if (digest(rows) != out.digest) {
            out.errors.push_back("simulated statistics differ between "
                                 "repetitions of the grid");
        }
    } while (secondsSince(t0) < seconds);
    while (setup.size() < kMinSetupReps)
        setup.push_back(setupSeconds(w, seed));
    while (kernel.size() < kMinKernelReps)
        kernel.push_back(referenceKernelSeconds());
    double insts = 0, sec = 0;
    double wall = *std::min_element(rest.begin(), rest.end());
    for (std::size_t i = 0; i < first.size(); ++i) {
        insts += static_cast<double>(first[i].instructions);
        sec += *std::min_element(cellSec[i].begin(), cellSec[i].end());
        wall += *std::min_element(cellRunSec[i].begin(), cellRunSec[i].end()) /
                w.jobs;
    }
    const double kips = sec > 0 ? insts / sec / 1e3 : 0;
    const double slowdown =
        *std::min_element(kernel.begin(), kernel.end()) / kReferenceKernelSec;
    const double rss = peakRssMib();

    // Accuracy belongs to the reference grid: the sweep that
    // bench_fig5_traffic and bench_fig7_speedup run by default, with
    // the presets' own seeds. Every workload reports it, after its
    // timed passes, so a change that moves the model shows on every
    // run and compares exactly between commits.
    SweepOptions refOpts =
        sweepOptions(kReferenceInstsPerCore, kReferenceJobs);
    refOpts.runOptions.invariantCheckPeriod = kInvariantPeriod;
    const auto refRows =
        runSweep(allConfigs(), presetsFor(workloads().back(), 0), refOpts);
    checkRows(refRows, out);
    const Accuracy ref = accuracy(refRows);
    // The same comparison on this run's own grid and seed: a check of
    // the model on streams it was not tuned on. Only ref_grid's is
    // comparable with the paper's averages.
    const Accuracy own = accuracy(first);

    // Host times at the reference host's speed.
    out.json = {
        {"sim_kips", kips * slowdown, "KIPS"},
        {"wall_s", wall / slowdown, "s"},
        {"setup_s", median(setup) / slowdown, "s"},
        {"peak_rss_mib", rss, "MiB"},
        {"fig7_err_pp", std::fabs(ref.ipcGainPct - kPaperIpcGainPct), "pp"},
        {"fig5_err_pp",
         std::fabs(ref.trafficChangePct - kPaperTrafficChangePct), "pp"},
        {"misslat_err_pp",
         std::fabs(ref.missLatChangePct - kPaperMissLatChangePct), "pp"},
    };
    out.extra = {
        {"failed_frac",
         static_cast<double>(out.failed) /
             static_cast<double>(out.attempted),
         "frac"},
        {"repetitions", static_cast<double>(rest.size()), "count"},
        {"host.slowdown", slowdown, "x"},
        {"host.sim_kips", kips, "KIPS"},
        {"host.wall_s", wall, "s"},
        {"host.setup_s", median(setup), "s"},
        {"ref.ipc_gain_pct", ref.ipcGainPct, "%"},
        {"ref.traffic_change_pct", ref.trafficChangePct, "%"},
        {"ref.misslat_change_pct", ref.missLatChangePct, "%"},
        {"grid.ipc_gain_pct", own.ipcGainPct, "%"},
        {"grid.traffic_change_pct", own.trafficChangePct, "%"},
        {"grid.misslat_change_pct", own.missLatChangePct, "%"},
    };
    return out;
}

// --------------------------------------------------------------------
// --trace 1: per-layer metrics from a traced run loop.

/** Layers timed around their public calls in tracedRun(). */
enum Layer : unsigned
{
    kNext,        //!< AccessStream::next
    kTranslate,   //!< PageTable::translate
    kCore,        //!< OooModel issue calls, per access
    kGolden,      //!< GoldenMemory::load / store
    kAccessL1,    //!< MemorySystem::access, L1 hits
    kAccessMiss,  //!< MemorySystem::access, L1 misses
    kNumLayers
};

/** One run loop iteration in this many is timed. A pair of clock reads
 * costs about as much as a short call, so timing every call would
 * mostly measure the clock. */
constexpr std::uint64_t kSamplePeriod = 128;

/** A sampled iteration with a span longer than this (hash-table
 * growth, a page fault, a preemption) is left out of the per-call
 * means: one such span would outweigh thousands of ordinary ones. */
constexpr std::int64_t kOutlierNs = 50'000;

struct LayerTimes
{
    std::array<std::int64_t, kNumLayers> ns{};
    std::array<std::uint64_t, kNumLayers> spans{};
    std::uint64_t iterations = 0;
    // Sampled iterations that issued an access: how many, their time,
    // the part of it inside spans, and the number of spans.
    std::uint64_t sampled = 0;
    std::int64_t iterNs = 0;
    std::int64_t iterSpanNs = 0;
    std::uint64_t iterSpans = 0;
    std::uint64_t outliers = 0;
    // Measured-phase access mix.
    std::uint64_t ifetches = 0;
    std::uint64_t stores = 0;

    void
    add(const LayerTimes &o)
    {
        for (unsigned l = 0; l < kNumLayers; ++l) {
            ns[l] += o.ns[l];
            spans[l] += o.spans[l];
        }
        iterations += o.iterations;
        sampled += o.sampled;
        iterNs += o.iterNs;
        iterSpanNs += o.iterSpanNs;
        iterSpans += o.iterSpans;
        outliers += o.outliers;
        ifetches += o.ifetches;
        stores += o.stores;
    }
};

/** Times one loop iteration and the layer calls in it when the
 * iteration is sampled; otherwise does nothing. */
class Sampler
{
  public:
    Sampler(bool on, LayerTimes &lt) : on_(on), lt_(lt)
    {
        if (on_)
            start_ = nowNs();
    }

    void
    begin()
    {
        if (on_)
            t0_ = nowNs();
    }

    void
    end(Layer l)
    {
        if (on_) {
            const std::int64_t d = nowNs() - t0_;
            ns_[l] += d;
            ++spans_[l];
            longest_ = std::max(longest_, d);
        }
    }

    /** Record an iteration that issued an access. */
    void
    finish()
    {
        if (!on_)
            return;
        if (longest_ > kOutlierNs) {
            ++lt_.outliers;
            return;
        }
        ++lt_.sampled;
        lt_.iterNs += nowNs() - start_;
        for (unsigned l = 0; l < kNumLayers; ++l) {
            lt_.ns[l] += ns_[l];
            lt_.spans[l] += spans_[l];
            lt_.iterSpanNs += ns_[l];
            lt_.iterSpans += spans_[l];
        }
    }

  private:
    const bool on_;
    LayerTimes &lt_;
    std::int64_t start_ = 0;
    std::int64_t t0_ = 0;
    std::int64_t longest_ = 0;
    std::array<std::int64_t, kNumLayers> ns_{};
    std::array<std::uint64_t, kNumLayers> spans_{};
};

/**
 * runMulticore()'s serial loop, written against the layers' public
 * calls so each call can be timed from outside src/. It must return
 * the same RunResult as runMulticore() for the same cell; runCell()
 * checks that it does.
 */
RunResult
tracedRun(MemorySystem &system,
          std::vector<std::unique_ptr<AccessStream>> &streams,
          std::uint64_t warmupPerCore, LayerTimes &lt)
{
    const unsigned n = system.params().numNodes;
    std::vector<OooModel> cores;
    cores.reserve(n);
    for (unsigned i = 0; i < n; ++i)
        cores.emplace_back(system.params().core);
    std::vector<bool> active(n, true);
    GoldenMemory golden;
    RunResult result;

    const std::uint64_t warmupTotal = warmupPerCore * n;
    bool warm = warmupTotal == 0;
    std::uint64_t committed = 0;
    std::uint64_t instsAtReset = 0;
    Tick cyclesAtReset = 0;
    unsigned remaining = n;

    for (std::uint64_t iter = 0; remaining > 0; ++iter) {
        if (!warm && committed >= warmupTotal) {
            warm = true;
            system.resetStats();
            instsAtReset = committed;
            for (const auto &core : cores)
                cyclesAtReset = std::max(cyclesAtReset, core.finishTime());
            result.accesses = 0;
            result.totalAccessLatency = 0;
            result.lateHitsI = result.lateHitsD = 0;
            result.mergedMissesI = result.mergedMissesD = 0;
            lt.ifetches = lt.stores = 0;
        }
        const bool timed = iter % kSamplePeriod == 0;
        ++lt.iterations;
        Sampler span(timed, lt);

        unsigned best = n;
        for (unsigned i = 0; i < n; ++i) {
            if (active[i] &&
                (best == n || cores[i].now() < cores[best].now()))
                best = i;
        }
        OooModel &core = cores[best];

        MemAccess acc;
        span.begin();
        const bool more = streams[best]->next(acc);
        span.end(kNext);
        if (!more) {
            active[best] = false;
            --remaining;
            continue;
        }

        span.begin();
        const Addr paddr = system.pageTable().translate(acc.asid, acc.vaddr);
        span.end(kTranslate);
        const Addr lineAddr = paddr >> system.params().lineShift();

        span.begin();
        const bool merged = core.wouldBeLateHit(lineAddr);
        if (acc.instCount > 0) {
            core.issueInstructions(acc.instCount);
            core.countInstructions(acc.instCount);
        }
        span.end(kCore);
        committed += acc.instCount;

        span.begin();
        const AccessResult res = system.access(best, acc, core.now());
        span.end(res.l1Miss ? kAccessMiss : kAccessL1);
        ++result.accesses;
        result.totalAccessLatency += res.latency;
        const bool ifetch = isIFetch(acc.type);
        lt.ifetches += ifetch;
        lt.stores += isWrite(acc.type);
        if (merged) {
            if (ifetch) {
                ++result.lateHitsI;
                result.mergedMissesI += res.l1Miss;
            } else {
                ++result.lateHitsD;
                result.mergedMissesD += res.l1Miss;
            }
        }

        span.begin();
        core.issueMemAccess(lineAddr, res.latency, res.l1Miss, ifetch);
        span.end(kCore);

        span.begin();
        if (isWrite(acc.type)) {
            golden.store(lineAddr, acc.storeValue);
        } else if (res.loadValue != golden.load(lineAddr)) {
            ++result.valueErrors;
            if (result.firstError.empty()) {
                result.firstError =
                    vformat("value mismatch at line 0x%llx",
                            static_cast<unsigned long long>(lineAddr));
            }
        }
        span.end(kGolden);
        span.finish();
    }

    for (auto &core : cores) {
        result.cycles = std::max(result.cycles, core.finishTime());
        result.instructions += core.instructions();
    }
    result.cycles -= std::min(result.cycles, cyclesAtReset);
    result.instructions -= std::min(result.instructions, instsAtReset);
    return result;
}

/** Empty when the two runs of one cell agree; otherwise the first
 * field that differs. */
std::string
runDiff(const RunResult &a, const RunResult &b)
{
    const std::pair<const char *, std::array<std::uint64_t, 2>> fields[] = {
        {"cycles", {a.cycles, b.cycles}},
        {"instructions", {a.instructions, b.instructions}},
        {"accesses", {a.accesses, b.accesses}},
        {"lateHitsI", {a.lateHitsI, b.lateHitsI}},
        {"lateHitsD", {a.lateHitsD, b.lateHitsD}},
        {"mergedMissesI", {a.mergedMissesI, b.mergedMissesI}},
        {"mergedMissesD", {a.mergedMissesD, b.mergedMissesD}},
        {"totalAccessLatency", {a.totalAccessLatency, b.totalAccessLatency}},
        {"valueErrors", {a.valueErrors, b.valueErrors}},
        {"invariantErrors", {a.invariantErrors, b.invariantErrors}},
    };
    for (const auto &[name, v] : fields) {
        if (v[0] != v[1]) {
            return vformat("%s: runMulticore %llu, traced %llu", name,
                           static_cast<unsigned long long>(v[0]),
                           static_cast<unsigned long long>(v[1]));
        }
    }
    return "";
}

/** Both runs of one cell. */
struct CellTrace
{
    Metrics metrics;       //!< From the runMulticore() run.
    std::string error;
    double untracedLoopSec = 0;
    double measureSec = 0;        //!< Untraced measured phase.
    double makeSystemSec = 0;
    double makeStreamsSec = 0;
    double tracedLoopSec = 0;
    double collectSec = 0;
    double tracedCellSec = 0;     //!< makeSystem .. collectMetrics.
    double taskSec = 0;           //!< Whole job, both runs.
    LayerTimes layers;
};

void
runCell(ConfigKind kind, const NamedWorkload &wl, std::uint64_t insts,
        CellTrace &c)
{
    const auto tTask = Clock::now();
    c.metrics.config = configKindName(kind);
    c.metrics.benchmark = wl.name;
    try {
        ScopedAbortCapture capture;
        auto system = makeSystem(kind);
        const unsigned nodes = system->params().numNodes;
        const unsigned line = system->params().lineSize;
        auto streams = makeStreams(wl, nodes, line, 2 * insts);
        RunOptions ropts;
        ropts.warmupInstsPerCore = insts;
        auto t0 = Clock::now();
        const RunResult ref = runMulticore(*system, streams, ropts);
        c.untracedLoopSec = secondsSince(t0);
        c.measureSec = ref.measureWallSec;
        c.metrics = collectMetrics(kind, wl.suite, wl.name, *system, ref);
        system.reset();
        streams.clear();

        const auto tCell = Clock::now();
        system = makeSystem(kind);
        c.makeSystemSec = secondsSince(tCell);
        t0 = Clock::now();
        streams = makeStreams(wl, nodes, line, 2 * insts);
        c.makeStreamsSec = secondsSince(t0);
        t0 = Clock::now();
        RunResult run = tracedRun(*system, streams, insts, c.layers);
        c.tracedLoopSec = secondsSince(t0);
        t0 = Clock::now();
        const Metrics m =
            collectMetrics(kind, wl.suite, wl.name, *system, run);
        c.collectSec = secondsSince(t0);
        c.tracedCellSec = secondsSince(tCell);

        std::string why;
        if (!system->checkInvariants(why))
            c.error = "invariant error: " + why;
        else if (std::string d = runDiff(ref, run); !d.empty())
            c.error = "traced run differs from runMulticore: " + d;
        else if (simulatedJson(m) != simulatedJson(c.metrics))
            c.error = "traced run's statistics differ from runMulticore's";
        else
            c.error = cellError(c.metrics);
    } catch (const std::exception &e) {
        c.error = std::string("failed: ") + e.what();
    }
    c.taskSec = secondsSince(tTask);
}

/** Cost of one steady_clock read, subtracted from every span. */
double
clockReadNs()
{
    constexpr int kReads = 20000;
    double best = std::numeric_limits<double>::infinity();
    for (int round = 0; round < 5; ++round) {
        const std::int64_t t0 = nowNs();
        std::int64_t t = t0;
        for (int i = 0; i < kReads; ++i)
            t = nowNs();
        best = std::min(best, static_cast<double>(t - t0) / kReads);
    }
    return best;
}

double
mean(const std::vector<double> &v)
{
    double s = 0;
    for (double x : v)
        s += x;
    return v.empty() ? 0 : s / static_cast<double>(v.size());
}

Outcome
runTraced(const Workload &w, std::uint64_t seed, double seconds)
{
    Outcome out;
    const auto presets = presetsFor(w, seed);
    struct Spec
    {
        ConfigKind kind;
        const NamedWorkload *wl;
    };
    std::vector<Spec> specs;
    for (const auto &wl : presets)
        for (ConfigKind kind : w.configs)
            specs.push_back({kind, &wl});

    const double clockNs = clockReadNs();
    std::vector<CellTrace> cells;  // Every pass, grid order per pass.
    std::vector<Metrics> first;
    double busySec = 0, capacitySec = 0;
    const auto t0 = Clock::now();
    do {
        std::vector<CellTrace> pass(specs.size());
        const auto tp = Clock::now();
        {
            WorkStealingPool pool(w.jobs);
            for (std::size_t i = 0; i < specs.size(); ++i) {
                pool.submit([&, i] {
                    runCell(specs[i].kind, *specs[i].wl, w.instsPerCore,
                            pass[i]);
                });
            }
            pool.wait();
        }
        capacitySec += secondsSince(tp) * w.jobs;
        std::vector<Metrics> rows;
        for (auto &c : pass) {
            ++out.attempted;
            busySec += c.taskSec;
            if (!c.error.empty()) {
                ++out.failed;
                out.errors.push_back(c.metrics.benchmark + " on " +
                                     c.metrics.config + ": " + c.error);
            }
            rows.push_back(c.metrics);
            cells.push_back(std::move(c));
        }
        if (first.empty()) {
            first = std::move(rows);
            out.digest = digest(first);
        } else if (digest(rows) != out.digest) {
            out.errors.push_back("simulated statistics differ between "
                                 "repetitions of the grid");
        }
    } while (secondsSince(t0) < seconds);

    // Host time per layer call, with the clock reads taken out.
    LayerTimes all;
    std::map<std::string, LayerTimes> byConfig;
    std::map<std::string, std::array<double, 2>> untraced;  // sec, accesses
    double untracedLoop = 0, tracedLoop = 0, tracedCell = 0;
    double makeSystem = 0, makeStreams = 0, collect = 0;
    for (const auto &c : cells) {
        all.add(c.layers);
        byConfig[c.metrics.config].add(c.layers);
        untraced[c.metrics.config][0] += c.measureSec;
        untraced[c.metrics.config][1] +=
            static_cast<double>(c.metrics.accesses);
        untracedLoop += c.untracedLoopSec;
        tracedLoop += c.tracedLoopSec;
        tracedCell += c.tracedCellSec;
        makeSystem += c.makeSystemSec;
        makeStreams += c.makeStreamsSec;
        collect += c.collectSec;
    }
    // Share of a sampled iteration outside its spans. A sampled
    // iteration with k spans makes 2k + 2 clock reads: about k of them
    // fall inside the spans and k + 1 between them.
    const double inSpans = static_cast<double>(all.iterSpanNs) -
                           clockNs * static_cast<double>(all.iterSpans);
    const double between =
        static_cast<double>(all.iterNs - all.iterSpanNs) -
        clockNs * static_cast<double>(all.iterSpans + all.sampled);
    const double gapShare =
        std::max(0.0, between) / std::max(1.0, inSpans + between);
    // Outside all spans: that share of the run loops, plus whatever of
    // the traced cells lies outside the loops and the set-up spans.
    const double unattributed =
        gapShare * tracedLoop +
        (tracedCell - tracedLoop - makeSystem - makeStreams - collect);
    auto perCall = [clockNs](const LayerTimes &lt, Layer l,
                             std::uint64_t calls) {
        if (calls == 0)
            return 0.0;
        const double ns = static_cast<double>(lt.ns[l]) -
                          clockNs * static_cast<double>(lt.spans[l]);
        return std::max(0.0, ns) / static_cast<double>(calls);
    };
    const double n = static_cast<double>(cells.size());
    double accesses = 0;  // Measured phase, one pass.
    for (const auto &m : first)
        accesses += static_cast<double>(m.accesses);
    double measuredAccesses = 0;  // Every pass.
    for (const auto &c : cells)
        measuredAccesses += static_cast<double>(c.metrics.accesses);

    out.json = {
        {"workload.next_ns", perCall(all, kNext, all.spans[kNext]), "ns"},
        {"mem.translate_ns",
         perCall(all, kTranslate, all.spans[kTranslate]), "ns"},
        {"mem.golden_ns", perCall(all, kGolden, all.spans[kGolden]), "ns"},
        {"cpu.core_ns", perCall(all, kCore, all.spans[kTranslate]), "ns"},
        {"harness.make_system_ms", 1e3 * makeSystem / n, "ms"},
        {"harness.make_streams_ms", 1e3 * makeStreams / n, "ms"},
        {"harness.collect_metrics_ms", 1e3 * collect / n, "ms"},
        {"harness.pool_busy_frac", busySec / capacitySec, "frac"},
        {"trace.unattributed_frac", unattributed / tracedCell, "frac"},
        {"trace.overhead_frac", tracedLoop / untracedLoop - 1.0, "frac"},
        {"workload.accesses", accesses, "count"},
        {"workload.ifetch_frac",
         static_cast<double>(all.ifetches) / measuredAccesses, "frac"},
        {"workload.store_frac",
         static_cast<double>(all.stores) / measuredAccesses, "frac"},
    };

    // Host time per config, then the modelled machine per config,
    // averaged over the grid's presets (IPC as a geomean).
    for (ConfigKind kind : w.configs) {
        const std::string cfg = configKindName(kind);
        const bool reported =
            std::find(reportedConfigs().begin(), reportedConfigs().end(),
                      kind) != reportedConfigs().end();
        auto &dst = reported ? out.json : out.extra;
        const LayerTimes &lt = byConfig[cfg];
        dst.push_back({cfg + ".access_ns.l1",
                       perCall(lt, kAccessL1, lt.spans[kAccessL1]), "ns"});
        dst.push_back({cfg + ".access_ns.miss",
                       perCall(lt, kAccessMiss, lt.spans[kAccessMiss]),
                       "ns"});
        dst.push_back({cfg + ".ns_per_access",
                       1e9 * untraced[cfg][0] / untraced[cfg][1], "ns"});

        std::vector<double> ipc, l1i, l1d, msgs, lat, inv, hops, direct,
            local;
        for (const auto &m : first) {
            if (m.config != cfg)
                continue;
            ipc.push_back(m.ipc);
            l1i.push_back(m.l1iMissPct);
            l1d.push_back(m.l1dMissPct);
            msgs.push_back(m.msgsPerKiloInst);
            lat.push_back(m.avgMissLatency);
            inv.push_back(1e3 *
                          static_cast<double>(m.invalidationsReceived) /
                          static_cast<double>(m.instructions));
            hops.push_back(m.avgLiHops);
            direct.push_back(m.directAccessPct);
            local.push_back(m.nsLocalPct);
        }
        dst.push_back({cfg + ".ipc", geomean(ipc), "inst/cycle"});
        dst.push_back({cfg + ".l1i_miss_pct", mean(l1i), "%"});
        dst.push_back({cfg + ".l1d_miss_pct", mean(l1d), "%"});
        dst.push_back({cfg + ".msgs_pki", mean(msgs), "msgs/kinst"});
        dst.push_back({cfg + ".avg_miss_latency", mean(lat), "cycles"});
        dst.push_back({cfg + ".invalidations_pki", mean(inv), "inv/kinst"});
        // Only the D2M configs have metadata hops and placement; for
        // the baselines these read 0 by construction.
        if (kind != ConfigKind::Base2L && kind != ConfigKind::Base3L) {
            dst.push_back({cfg + ".li_hops", mean(hops), "hops"});
            dst.push_back({cfg + ".direct_access_pct", mean(direct), "%"});
            dst.push_back({cfg + ".ns_local_pct", mean(local), "%"});
        }
    }
    out.extra.push_back({"trace.clock_read_ns", clockNs, "ns"});
    out.extra.push_back(
        {"trace.sampled_frac",
         static_cast<double>(all.sampled) /
             static_cast<double>(all.iterations),
         "frac"});
    out.extra.push_back({"trace.outlier_iters",
                         static_cast<double>(all.outliers), "count"});
    out.extra.push_back({"repetitions", n / static_cast<double>(specs.size()),
                         "count"});
    return out;
}

// --------------------------------------------------------------------

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "simbench: %s\n"
                 "usage: simbench --workload <hit_path|miss_path|ref_grid> "
                 "--seed <n> --seconds <s> --trace <0|1> "
                 "[--fail-bench <preset>]\n",
                 why);
    std::exit(2);
}

std::uint64_t
parseUnsigned(const char *flag, const std::string &s)
{
    if (s.empty() || s.size() > 19 ||
        s.find_first_not_of("0123456789") != std::string::npos)
        usage(vformat("%s wants a whole number, got '%s'", flag,
                      s.c_str()).c_str());
    return std::strtoull(s.c_str(), nullptr, 10);
}

void
printMetric(const Metric &m)
{
    std::printf("  %-34s %16.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload, failBench;
    std::uint64_t seed = 0, trace = 0;
    double seconds = 0;
    bool haveSeed = false, haveSeconds = false, haveTrace = false;
    for (int i = 1; i < argc; i += 2) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        const std::string value = argv[i + 1];
        if (flag == "--workload") {
            workload = value;
        } else if (flag == "--seed") {
            seed = parseUnsigned("--seed", value);
            haveSeed = true;
        } else if (flag == "--seconds") {
            char *end = nullptr;
            seconds = std::strtod(value.c_str(), &end);
            if (value.empty() || *end || !(seconds > 0) || seconds > 3600)
                usage("--seconds wants a number in (0, 3600]");
            haveSeconds = true;
        } else if (flag == "--trace") {
            trace = parseUnsigned("--trace", value);
            if (trace > 1)
                usage("--trace wants 0 or 1");
            haveTrace = true;
        } else if (flag == "--fail-bench") {
            failBench = value;
        } else {
            usage(("unknown argument " + flag).c_str());
        }
    }
    const Workload *w = nullptr;
    for (const auto &cand : workloads())
        if (workload == cand.name)
            w = &cand;
    if (!w)
        usage(("unknown workload '" + workload + "'").c_str());
    if (!haveSeed || !haveSeconds || !haveTrace)
        usage("--seed, --seconds and --trace are required");

    const Outcome out = trace ? runTraced(*w, seed, seconds)
                              : runUntraced(*w, seed, seconds, failBench);

    std::printf("simbench %s seed=%llu trace=%llu: %zu presets x %zu "
                "configs, %llu insts/core (+ equal warmup), %u job(s)\n",
                w->name, static_cast<unsigned long long>(seed),
                static_cast<unsigned long long>(trace),
                presetsFor(*w, seed).size(), w->configs.size(),
                static_cast<unsigned long long>(w->instsPerCore), w->jobs);
    for (const auto &m : out.json)
        printMetric(m);
    for (const auto &m : out.extra)
        printMetric(m);
    std::printf("  %-34s 0x%016llx\n", "digest",
                static_cast<unsigned long long>(out.digest));
    bool correct = out.failed == 0 && out.errors.empty();
    for (const auto &m : out.json)
        correct = correct && std::isfinite(m.value);
    for (const auto &e : out.errors)
        std::printf("  ERROR %s\n", e.c_str());

    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(out.attempted),
                static_cast<unsigned long long>(out.failed));
    for (std::size_t i = 0; i < out.json.size(); ++i) {
        const Metric &m = out.json[i];
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", m.name.c_str(),
                    std::isfinite(m.value) ? m.value : 0.0, m.unit.c_str());
    }
    std::printf("}}\n");
    return correct ? 0 : 1;
}
