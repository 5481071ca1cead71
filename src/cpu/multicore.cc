#include "cpu/multicore.hh"

#include <algorithm>

#include "common/logging.hh"
#include "obs/profiler.hh"
#include "obs/selfprof.hh"
#include "obs/snapshot.hh"
#include "obs/trace.hh"

namespace d2m
{

RunResult
runMulticore(MemorySystem &system,
             std::vector<std::unique_ptr<AccessStream>> &streams,
             const RunOptions &opts)
{
    const unsigned n = system.params().numNodes;
    fatal_if(streams.size() != n,
             "need one stream per node (%u streams, %u nodes)",
             static_cast<unsigned>(streams.size()), n);

    std::vector<OooModel> cores;
    cores.reserve(n);
    for (unsigned i = 0; i < n; ++i)
        cores.emplace_back(system.params().core);

    std::vector<bool> active(n, true);
    GoldenMemory golden;
    RunResult result;

    const std::uint64_t warmup_total = opts.warmupInstsPerCore * n;
    bool warm = warmup_total == 0;
    std::uint64_t insts_at_reset = 0;
    Tick cycles_at_reset = 0;

    obs::SimRateProfiler profiler;
    std::uint64_t total_committed = 0;

    unsigned remaining = n;
    const unsigned line_shift = system.lineShift();

    // Root scope for the rest of the run: the loop's own glue, and
    // any preemption that lands in it, counts as "kernel" instead of
    // unattributed time.
    obs::ProfScope kernelScope(obs::ProfSite::Kernel);

    while (remaining > 0) {
        // Cancellation poll: one relaxed load per access of a sweep
        // cell, so a drain stops the run at its next access.
        if (opts.cancel &&
            opts.cancel->load(std::memory_order_relaxed) != 0) [[unlikely]]
            fatal("run cancelled by a shutdown drain (SIGINT/SIGTERM)");
        if (!warm && total_committed >= warmup_total) {
            warm = true;
            // Close the in-flight warmup interval against the
            // pre-reset counters before they vanish.
            if (opts.snapshotter) [[unlikely]]
                opts.snapshotter->statsReset(total_committed,
                                             obs::curTick);
            system.resetStats();
            profiler.phaseReset();
            // Drop the warmup samples: the profile covers exactly the
            // measured phase.
            if (opts.selfprof) [[unlikely]]
                opts.selfprof->phaseReset();
            // Marker so post-warmup aggregates recomputed from the
            // trace line up with the (reset) Stats counters.
            obs::traceEvent(obs::TraceKind::StatsReset, 0);
            insts_at_reset = total_committed;
            for (const auto &core : cores) {
                cycles_at_reset =
                    std::max(cycles_at_reset, core.finishTime());
            }
            result.accesses = 0;
            result.totalAccessLatency = 0;
            result.lateHitsI = result.lateHitsD = 0;
            result.mergedMissesI = result.mergedMissesD = 0;
        }
        // Pick the active core with the smallest issue clock.
        unsigned best = n;
        {
            obs::ProfScope ps(obs::ProfSite::Sched);
            for (unsigned i = 0; i < n; ++i) {
                if (active[i] && (best == n ||
                                  cores[i].now() < cores[best].now())) {
                    best = i;
                }
            }
        }
        OooModel &core = cores[best];

        MemAccess acc;
        {
            obs::ProfScope ps(obs::ProfSite::Workload);
            if (!streams[best]->next(acc)) {
                active[best] = false;
                --remaining;
                continue;
            }
        }

        // Late-hit detection needs the physical line address, which is
        // stable under repeated translation.
        Addr paddr;
        {
            obs::ProfScope ps(obs::ProfSite::Translate);
            paddr = system.pageTable().translate(acc.asid, acc.vaddr);
        }
        const Addr line_addr = paddr >> line_shift;
        const bool merged = core.wouldBeLateHit(line_addr);

        if (acc.instCount > 0) {
            {
                obs::ProfScope ps(obs::ProfSite::CoreModel);
                core.issueInstructions(acc.instCount);
                core.countInstructions(acc.instCount);
            }
            total_committed += acc.instCount;
            // Cumulative per-site samples at every heartbeat: the
            // chrome-trace converter renders them as counter tracks on
            // the sim timeline.
            if (profiler.maybeHeartbeat(total_committed,
                                        result.accesses) &&
                opts.selfprof) [[unlikely]] {
                opts.selfprof->emitTraceCounters();
            }
        }

        obs::setCurTick(core.now());
        if (obs::traceEnabled()) [[unlikely]] {
            const unsigned op =
                isIFetch(acc.type) ? 0 : isWrite(acc.type) ? 2 : 1;
            obs::traceEvent(obs::TraceKind::AccessIssue, best, line_addr,
                            op);
        }
        const AccessResult res = system.access(best, acc, core.now());
        obs::traceEvent(obs::TraceKind::AccessComplete, best, line_addr,
                        res.latency, res.l1Miss);
        ++result.accesses;
        result.totalAccessLatency += res.latency;
        if (opts.snapshotter) [[unlikely]] {
            obs::ProfScope ps(obs::ProfSite::Snapshot);
            opts.snapshotter->tick(total_committed, core.now());
        }

        if (merged) {
            // Access landed in an open miss window: a "late hit"
            // (MSHR merge), whether the hierarchy reported hit or miss.
            if (isIFetch(acc.type)) {
                ++result.lateHitsI;
                if (res.l1Miss)
                    ++result.mergedMissesI;
            } else {
                ++result.lateHitsD;
                if (res.l1Miss)
                    ++result.mergedMissesD;
            }
        }

        {
            obs::ProfScope ps(obs::ProfSite::CoreModel);
            core.issueMemAccess(line_addr, res.latency, res.l1Miss,
                                isIFetch(acc.type));
        }

        // Golden-memory value checking: the global interleaving is the
        // architectural order.
        if (opts.checkValues) {
            obs::ProfScope ps(obs::ProfSite::ValueCheck);
            if (isWrite(acc.type)) {
                golden.store(line_addr, acc.storeValue);
            } else {
                const std::uint64_t expect = golden.load(line_addr);
                if (res.loadValue != expect) {
                    ++result.valueErrors;
                    if (result.firstError.empty()) {
                        result.firstError = vformat(
                            "value mismatch at line 0x%llx: got %llu, "
                            "expected %llu",
                            static_cast<unsigned long long>(line_addr),
                            static_cast<unsigned long long>(res.loadValue),
                            static_cast<unsigned long long>(expect));
                    }
                }
            }
        }

        if (opts.invariantCheckPeriod &&
            result.accesses % opts.invariantCheckPeriod == 0) {
            obs::ProfScope ps(obs::ProfSite::Invariants);
            std::string why;
            if (!system.checkInvariants(why)) {
                ++result.invariantErrors;
                if (result.firstError.empty())
                    result.firstError = why;
            }
        }
    }

    for (auto &core : cores) {
        result.cycles = std::max(result.cycles, core.finishTime());
        result.instructions += core.instructions();
    }
    // Close the last partial interval with absolute stamps (before
    // the warmup offsets are subtracted below) so interval tick/inst
    // ranges stay monotonic across the whole run.
    if (opts.snapshotter) [[unlikely]]
        opts.snapshotter->finish(total_committed, result.cycles);
    result.cycles -= std::min(result.cycles, cycles_at_reset);
    result.instructions -= std::min(result.instructions, insts_at_reset);

    profiler.finish(result.instructions);
    if (opts.selfprof) [[unlikely]]
        opts.selfprof->stop();
    result.warmupWallSec = profiler.warmupWallSec();
    result.measureWallSec = profiler.measureWallSec();
    result.simKips = profiler.kips();
    obs::setCurTick(result.cycles);
    // Final cumulative sample so short runs (under one heartbeat
    // period) still land their counter tracks on the timeline.
    if (opts.selfprof) [[unlikely]]
        opts.selfprof->emitTraceCounters();
    obs::traceEvent(obs::TraceKind::RunEnd, 0, result.accesses,
                    result.instructions,
                    static_cast<std::uint64_t>(result.simKips));
    obs::flushGlobal();
    return result;
}

} // namespace d2m
