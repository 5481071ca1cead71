/**
 * @file
 * Simulation self-profiler (DESIGN.md §14).
 *
 * Two halves. The site register: every thread owns one word,
 * obs::sitePath, naming the instrumentation sites open on it, and a
 * ProfScope pushes its site on construction and restores the word on
 * destruction. That is a load and two stores, with no clock read and
 * no test, so the scopes run always and stay in the hot paths. The
 * sampler: with D2M_SELFPROF=1 a SelfProfiler thread reads the run
 * thread's word every kSamplePeriod and counts samples per path; the
 * call tree is rebuilt from those counts, and a node's seconds are its
 * sample share of the measured phase, so the tree adds up to the
 * measured wall-clock by construction.
 */

#ifndef D2M_OBS_SELFPROF_HH
#define D2M_OBS_SELFPROF_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/flat_map.hh"

namespace d2m::obs
{

/**
 * Static instrumentation sites. A fixed enum (not dynamic
 * registration) lets a site fit a 5-bit slot of the path word and
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
    Md3Evict,     //!< Case D: MD3 victim choice + global MD3 eviction.
    RegionEvict,  //!< Case D: MD2 spill flushing a node's region.
    Md2Victim,    //!< Case D: MD2 victim choice.
    Md1Promote,   //!< MD2 -> MD1 promotion (MD1 victim + install).
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

/** Bits per site in a path word: a site is stored as its enum value
 * plus one, so 0 marks "no site" and a word holds 12 levels. */
inline constexpr unsigned kSiteBits = 5;
static_assert(static_cast<unsigned>(ProfSite::NUM_SITES) <
              (1u << kSiteBits));

/**
 * The sites open on this thread, innermost in the low kSiteBits; 0
 * when none is. The sampler thread reads it, so every access is a
 * relaxed __atomic builtin, which compiles to a plain move. Not a
 * std::atomic: -fsanitize=null then checks the variable's address on
 * each member call, and GCC 12 branches on the flags of a TLS add
 * that the linker rewrites to a flag-less lea, so the check misfires.
 * constinit: no dynamic initialisation, so no TLS wrapper call.
 */
extern constinit thread_local std::uint64_t sitePath;

/** "kernel/mem_access/md3" for path word @p path (outermost first). */
std::string profPathName(std::uint64_t path);

/**
 * RAII site register: pushes @p site onto this thread's sitePath and
 * restores the previous word on exit, exception unwind included.
 */
class ProfScope
{
  public:
    explicit ProfScope(ProfSite site)
        : saved_(__atomic_load_n(&sitePath, __ATOMIC_RELAXED))
    {
        __atomic_store_n(&sitePath,
                         (saved_ << kSiteBits) |
                             (static_cast<std::uint64_t>(site) + 1),
                         __ATOMIC_RELAXED);
    }

    ~ProfScope() { __atomic_store_n(&sitePath, saved_, __ATOMIC_RELAXED); }

    ProfScope(const ProfScope &) = delete;
    ProfScope &operator=(const ProfScope &) = delete;

  private:
    std::uint64_t saved_;
};

/** Sampling profiler of one thread's sitePath, for one run. */
class SelfProfiler
{
  public:
    /** Sampler sleep between reads. A thread, not SIGPROF: profiling
     * timers expire on the scheduler tick (250 Hz on common kernels),
     * while this loop reaches thousands of samples per second. */
    static constexpr std::chrono::microseconds kSamplePeriod{100};

    /** One call-tree node: a distinct (parent chain, site) pair. */
    struct Node
    {
        ProfSite site;
        std::int32_t parent;         //!< Node index; -1 = root child.
        std::uint64_t samples = 0;   //!< Inclusive.
        std::uint64_t selfSamples = 0;
    };

    /** D2M_SELFPROF=1 enables. @return null when profiling is off. */
    static std::unique_ptr<SelfProfiler> fromEnv();

    /** Start sampling the calling thread's sitePath. */
    SelfProfiler();
    ~SelfProfiler() { stop(); }

    SelfProfiler(const SelfProfiler &) = delete;
    SelfProfiler &operator=(const SelfProfiler &) = delete;

    /** Warmup -> measure boundary: drop every sample so far. */
    void phaseReset();

    /** Stop sampling and join the sampler thread; idempotent. */
    void stop();

    /** Samples taken since the last phaseReset(). */
    std::uint64_t samples() const;

    /** The call tree rebuilt from the path counts: a parent always
     * precedes its children, siblings are in site-enum order. */
    std::vector<Node> tree() const;

    /**
     * The "wall" member of the selfprof JSON section: total /
     * attributed / explicit unattributed remainder, sample count and
     * the full tree (integer microseconds = sample share of
     * @p total_sec, the measured-phase wall-clock).
     */
    std::string wallJson(double total_sec) const;

    /** Human table of every sampled path by self share, one trailing
     * newline per line, ready for the runner's log buffer. */
    std::string table(double total_sec) const;

    /** Emit one TraceKind::SelfProf record per sampled site with its
     * cumulative self samples (chrome-trace counter track). */
    void emitTraceCounters() const;

  private:
    FlatMap<std::uint64_t, std::uint64_t> countsCopy() const;
    void sampleLoop();

    const std::uint64_t *target_;
    mutable std::mutex mu_;
    FlatMap<std::uint64_t, std::uint64_t> counts_;  //!< Path -> samples.
    std::atomic<bool> stopping_{false};
    std::thread sampler_;
};

} // namespace d2m::obs

#endif // D2M_OBS_SELFPROF_HH
