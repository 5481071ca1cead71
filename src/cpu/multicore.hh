/**
 * @file
 * Multicore execution driver.
 *
 * Cores execute their access streams interleaved by issue time: at
 * every step the core with the smallest local clock issues its next
 * reference, which the memory system executes atomically. The global
 * interleaving order defines the architectural order used for
 * golden-memory value checking, making coherence violations directly
 * observable as wrong load values.
 */

#ifndef D2M_CPU_MULTICORE_HH
#define D2M_CPU_MULTICORE_HH

#include <atomic>
#include <functional>
#include <memory>
#include <vector>

#include "cpu/mem_system.hh"
#include "cpu/ooo_model.hh"
#include "mem/golden_memory.hh"
#include "workload/stream.hh"

namespace d2m::obs
{
class StatSnapshotter;
class SelfProfiler;
} // namespace d2m::obs

namespace d2m
{

/** Results of one multicore run. */
struct RunResult
{
    Tick cycles = 0;                //!< Max finish time across cores.
    std::uint64_t instructions = 0; //!< Total committed instructions.
    std::uint64_t accesses = 0;
    std::uint64_t lateHitsI = 0;    //!< MSHR-merged I-side accesses.
    std::uint64_t lateHitsD = 0;
    std::uint64_t mergedMissesI = 0;  //!< Of lateHits, reported misses.
    std::uint64_t mergedMissesD = 0;
    std::uint64_t totalAccessLatency = 0;  //!< Sum over all accesses.
    std::uint64_t valueErrors = 0;  //!< Golden-memory mismatches.
    std::uint64_t invariantErrors = 0;
    std::string firstError;

    // Host-side simulation-rate profile (obs/profiler.hh).
    double warmupWallSec = 0;   //!< Wall-clock spent in warmup.
    double measureWallSec = 0;  //!< Wall-clock spent measured.
    double simKips = 0;         //!< Measured kilo-insts / host second.
};

/** Options controlling a run. */
struct RunOptions
{
    /** Check system invariants every N accesses (0 = never). */
    std::uint64_t invariantCheckPeriod = 0;
    /** Verify load values against golden memory. */
    bool checkValues = true;
    /**
     * Warmup instructions per core: caches, metadata stores and
     * statistics warm up first, then all counters reset and only the
     * steady-state region is measured (the paper uses
     * region-of-interest / sampled simulation, Section V-A).
     */
    std::uint64_t warmupInstsPerCore = 0;
    /**
     * Interval-stats collector for THIS run (null = disabled). Owned
     * by the caller; carried per run instead of through a global hook
     * so concurrent sweep jobs never share snapshot state.
     */
    obs::StatSnapshotter *snapshotter = nullptr;
    /**
     * Self-profiler for THIS run (null = disabled; see
     * obs/selfprof.hh). Owned by the caller like the snapshotter and
     * built on the thread that calls runMulticore(), whose sites it
     * samples; the run loop drops its warmup samples, emits its
     * chrome-trace counters at each heartbeat and stops it at the end.
     */
    obs::SelfProfiler *selfprof = nullptr;

    /**
     * Cooperative cancellation flag (null = not cancellable). The run
     * loop reads it once per access; when it is nonzero (a sweep's
     * shutdown drain) the loop raises a fatal() — which a sweep job's
     * abort capture turns into an abandoned cell.
     */
    const std::atomic<int> *cancel = nullptr;
};

/** Drive @p streams (one per node) to completion on @p system. */
RunResult runMulticore(MemorySystem &system,
                       std::vector<std::unique_ptr<AccessStream>> &streams,
                       const RunOptions &opts = {});

} // namespace d2m

#endif // D2M_CPU_MULTICORE_HH
