/**
 * @file
 * Simulation self-profiler (DESIGN.md §15).
 *
 * SelfProfiler is a hierarchical wall-time profiler of the simulator
 * itself. Scoped RAII timers (ProfScope) push frames onto a
 * thread-local stack; each distinct (parent, site) pair becomes one
 * node of a call tree with inclusive nanoseconds and call counts.
 * Enabled by D2M_SELFPROF=1; when off, every ProfScope compiles to a
 * single thread-local null check (the traceEvent() pattern), so
 * instrumentation stays in hot paths permanently.
 */

#ifndef D2M_OBS_SELFPROF_HH
#define D2M_OBS_SELFPROF_HH

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace d2m::obs
{

/**
 * Static instrumentation sites. A fixed enum (not dynamic
 * registration) keeps ProfScope construction allocation-free and
 * gives the JSON/table/chrome-trace emitters a stable name table.
 */
enum class ProfSite : std::uint8_t
{
    Kernel,       //!< One whole kernel-loop iteration (root scope).
    Sched,        //!< Kernel loop: next-core selection scan.
    Workload,     //!< Workload generation (stream next()).
    Translate,    //!< Page-table translation in the kernel loop.
    CoreModel,    //!< OoO core model (issue windows, late hits).
    MemAccess,    //!< MemorySystem::access() (whole transaction).
    MdLookup,     //!< D2M MD1/MD2 metadata lookup path.
    Md3,          //!< D2M MD3 consultation (case D).
    ServiceLine,  //!< D2M line service after metadata resolution.
    FetchMaster,  //!< D2M master fetch (LLC / remote node / memory).
    CohUpgrade,   //!< D2M write upgrade through MD3 (case C).
    Invalidate,   //!< Cross-core invalidation + LI update delivery.
    DirProtocol,  //!< Baseline LLC tag search + directory protocol.
    NocSend,      //!< Interconnect message accounting.
    Memory,       //!< DRAM reads/writes.
    ValueCheck,   //!< Golden-memory value checking.
    Invariants,   //!< Periodic invariant checks.
    Snapshot,     //!< Interval-stats snapshotting.
    NUM_SITES
};

/** Short stable site name ("sched", "md_lookup", ...). */
const char *profSiteName(ProfSite s);

/** Hierarchical wall-time self-profiler for one run. */
class SelfProfiler
{
  public:
    /** One call-tree node: a distinct (parent chain, site) pair. */
    struct Node
    {
        ProfSite site;
        std::int32_t parent;       //!< Node index; -1 = root child.
        std::uint64_t ns = 0;      //!< Inclusive wall nanoseconds.
        std::uint64_t calls = 0;
        std::int32_t firstChild = -1;
        std::int32_t nextSibling = -1;
    };

    /** D2M_SELFPROF=1 enables; D2M_SELFPROF_TOP sizes the stderr
     * table. @return null when profiling is off. */
    static std::unique_ptr<SelfProfiler> fromEnv();

    explicit SelfProfiler(std::uint64_t top_n = 10) : topN_(top_n) {}

    /**
     * Warmup -> measure boundary: zero all accumulated time and call
     * counts so the reported tree covers exactly the measured phase
     * (tree structure is kept; it is a deterministic property of the
     * execution path, not of timing).
     */
    void phaseReset();

    /** Push a frame for @p site under the current frame. */
    void enter(ProfSite site);

    /** Pop the current frame, charging its elapsed time. */
    void leave();

    bool stackEmpty() const { return stack_.empty(); }
    const std::vector<Node> &tree() const { return nodes_; }
    std::uint64_t topN() const { return topN_; }

    /** Self time of node @p i: inclusive minus children inclusive. */
    std::uint64_t selfNs(std::size_t i) const;

    /** Total nanoseconds attributed at depth 1 (tree coverage). */
    std::uint64_t attributedNs() const;

    /**
     * The "wall" member of the selfprof JSON section: total /
     * attributed / explicit unattributed remainder, plus the full
     * tree (children in site-enum order; integer microseconds).
     * @param total_sec the measured-phase wall-clock this tree is
     *                  accounting for (SimRateProfiler's measurement).
     */
    std::string wallJson(double total_sec) const;

    /** Human top-N flat table (by self time), one trailing newline
     * per line, ready for the runner's log buffer. */
    std::string topTable(double total_sec) const;

    /** Emit one TraceKind::SelfProf record per depth-1 site with
     * cumulative microseconds + calls (chrome-trace counter track). */
    void emitTraceCounters() const;

  private:
    using Clock = std::chrono::steady_clock;

    struct Frame
    {
        std::int32_t node;
        Clock::time_point t0;
    };

    std::vector<Node> nodes_;
    std::vector<Frame> stack_;
    std::int32_t rootFirst_ = -1;
    std::uint64_t topN_;
};

/**
 * The profiler observed by ProfScope on this thread; null = disabled.
 * thread_local for the same reason as obs::globalSink: parallel sweep
 * jobs each attach their own run's profiler.
 */
extern thread_local SelfProfiler *activeSelfProf;

/** Attach @p prof for a scope (the run loop); restores on exit. */
class SelfProfAttach
{
  public:
    explicit SelfProfAttach(SelfProfiler *prof)
        : prev_(activeSelfProf)
    {
        if (prof)
            activeSelfProf = prof;
    }

    ~SelfProfAttach() { activeSelfProf = prev_; }

    SelfProfAttach(const SelfProfAttach &) = delete;
    SelfProfAttach &operator=(const SelfProfAttach &) = delete;

  private:
    SelfProfiler *prev_;
};

/**
 * RAII scoped timer. When profiling is off (the default) construction
 * and destruction are each a single thread-local null check — safe on
 * every hot path, including per-NoC-message. Destruction during
 * exception unwind pops the frame like any other exit.
 */
class ProfScope
{
  public:
    explicit ProfScope(ProfSite site)
    {
        if (!activeSelfProf) [[likely]]
            return;
        prof_ = activeSelfProf;
        prof_->enter(site);
    }

    /** Hot-loop variant: the caller already holds the profiler
     * pointer (e.g. RunOptions::selfprof hoisted into a local), so
     * the disabled path is a register test instead of a thread-local
     * load per scope. */
    ProfScope(SelfProfiler *prof, ProfSite site)
    {
        if (!prof) [[likely]]
            return;
        prof_ = prof;
        prof_->enter(site);
    }

    ~ProfScope()
    {
        if (prof_) [[unlikely]]
            prof_->leave();
    }

    ProfScope(const ProfScope &) = delete;
    ProfScope &operator=(const ProfScope &) = delete;

  private:
    SelfProfiler *prof_ = nullptr;
};

/** Host-rate numbers folded into the selfprof section (satellite of
 * obs/profiler.hh: KIPS, heartbeats and phase wall-clocks now land in
 * the same "selfprof" JSON object as the timer tree). */
struct SelfProfRate
{
    double simKips = 0;
    double warmupWallSec = 0;
    double measureWallSec = 0;
    std::uint64_t heartbeats = 0;
    std::uint64_t heartbeatPeriodInsts = 0;
};

/**
 * Assemble the complete "selfprof" run-row section:
 *   {"rate":{...}[,"wall":{...}]}
 * "wall" appears when @p prof is non-null (D2M_SELFPROF=1). Rate
 * fields reuse the metrics field names (sim_kips, *_wall_sec) so every
 * existing host-timing normalizer strips them too.
 */
std::string selfprofSection(const SelfProfiler *prof,
                            const SelfProfRate &rate);

} // namespace d2m::obs

#endif // D2M_OBS_SELFPROF_HH
