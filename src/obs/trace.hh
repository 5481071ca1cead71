/**
 * @file
 * Structured event tracing.
 *
 * Components record typed, tick-stamped TraceRecords into a bounded
 * ring buffer; when D2M_TRACE_FILE is set, full buffers (and the final
 * flush) are written as JSONL — one JSON object per line — so paper
 * figures (per-kilo-instruction message counts, LI hop chains, region
 * classification churn) can be re-derived post-hoc from a single trace
 * instead of bespoke counters.
 *
 * Record schema (DESIGN.md §9): every line carries "tick" and "kind";
 * the remaining fields are kind-specific. A "stats_reset" marker is
 * emitted when the warmup counters reset, so post-warmup aggregates
 * recomputed from the trace match the Stats counters exactly.
 *
 * This is the simulator's only event log. Protocol events that have
 * no kind of their own (metadata hits, cases D4/E/F, MD2 prune and
 * spill, MD3 eviction, NS-LLC replication, baseline back-invalidations
 * and forwards) are "proto_event" records named by ProtoEvent.
 *
 * Cost when disabled is one null-pointer check per record() call.
 * Without a file the ring simply wraps, keeping the most recent
 * records for post-mortem inspection (and counting what it dropped).
 */

#ifndef D2M_OBS_TRACE_HH
#define D2M_OBS_TRACE_HH

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/types.hh"

namespace d2m::obs
{

/** Typed trace events across the hierarchy. */
enum class TraceKind : std::uint8_t
{
    AccessIssue,     //!< Core issues a memory access.
    AccessComplete,  //!< Access serviced (latency known).
    LiHop,           //!< One hop along a location-info chain.
    RegionClass,     //!< Region classification flip (Table II).
    CohUpgrade,      //!< Write permission upgrade (case B/C).
    CohDowngrade,    //!< Invalidation delivered to a node.
    NocSend,         //!< One counted interconnect message.
    ProtoEvent,      //!< Named protocol event (see ProtoEvent).
    StatsReset,      //!< Warmup ended; Stats counters reset.
    Heartbeat,       //!< Periodic progress record.
    SelfProf,        //!< Cumulative self-profiler site counter.
    RunEnd,          //!< Run finished (totals).
    NUM_KINDS
};

/** Short stable name used as the JSONL "kind" value. */
const char *traceKindName(TraceKind k);

/**
 * The event of a TraceKind::ProtoEvent record, encoded as a stable
 * JSONL "event" name. Region-level events carry the physical region
 * number as their address, line-level events the line address
 * (DESIGN.md Section 9).
 */
enum class ProtoEvent : std::uint8_t
{
    Md1Hit,         //!< Metadata lookup satisfied by MD1.
    Md2Hit,         //!< Metadata lookup satisfied by MD2.
    Md3Lookup,      //!< MD1/MD2 miss: case D through MD3.
    D4Scramble,     //!< Case D4 assigned the region's index scramble.
    Md2Prune,       //!< Pruning dropped a node's MD2 entry.
    CaseE,          //!< Master eviction, private region.
    CaseF,          //!< Master eviction, shared region.
    Md2Spill,       //!< MD2 entry evicted (local copies flushed).
    Md3Evict,       //!< MD3 entry evicted (global region flush).
    Replicate,      //!< Line replicated into the local NS-LLC slice.
    PressureEpoch,  //!< NS-LLC pressure-exchange epoch.
    LlcBackInv,     //!< Baseline LLC victim back-invalidated.
    DirForward,     //!< Baseline directory forward to the owner.
    NUM_EVENTS
};

/**
 * One compact in-memory record. Field meaning is kind-specific; the
 * JSONL encoder maps (node, addr, a, b) to semantic member names per
 * kind (see traceToJson and DESIGN.md §9).
 */
struct TraceRecord
{
    Tick tick = 0;
    TraceKind kind = TraceKind::AccessIssue;
    std::uint32_t node = 0;
    std::uint64_t addr = 0;
    std::uint64_t a = 0;
    std::uint64_t b = 0;
};

/** Encode @p rec as one JSON object (no trailing newline). */
std::string traceToJson(const TraceRecord &rec);

/** Bounded ring buffer of TraceRecords with JSONL flushing. */
class TraceSink
{
  public:
    /**
     * @param path  JSONL output file ("" = in-memory ring only).
     * @param capacity  ring size in records (>= 1).
     */
    explicit TraceSink(std::string path, std::size_t capacity = 8192);
    ~TraceSink();

    TraceSink(const TraceSink &) = delete;
    TraceSink &operator=(const TraceSink &) = delete;

    /** Append one record; flushes to the file when the ring fills.
     * Without a file, a full ring wraps (oldest record dropped). */
    void record(const TraceRecord &rec);

    /** Write all buffered records to the file (no-op without one). */
    void flush();

    std::size_t capacity() const { return capacity_; }
    std::size_t buffered() const { return buf_.size(); }
    std::uint64_t recorded() const { return recorded_; }
    std::uint64_t dropped() const { return dropped_; }
    std::uint64_t flushed() const { return flushed_; }

    /** Buffered records, oldest first (post-mortem inspection). */
    std::vector<TraceRecord> snapshot() const;

  private:
    std::string path_;
    std::FILE *file_ = nullptr;
    std::size_t capacity_;
    std::vector<TraceRecord> buf_;  //!< Ring storage.
    std::size_t head_ = 0;          //!< Oldest record when wrapped.
    std::uint64_t recorded_ = 0;
    std::uint64_t dropped_ = 0;
    std::uint64_t flushed_ = 0;
};

/**
 * Global sink; null when tracing is disabled. thread_local: the env
 * sink attaches on the main thread; each parallel sweep worker
 * (harness/pool.hh) attaches its own per-job sink so concurrent runs
 * never interleave records in one ring. constinit: no dynamic
 * initialisation, so an access is a plain TLS load without the
 * wrapper call.
 */
extern constinit thread_local TraceSink *globalSink;

/** @return true when a global trace sink is attached. */
inline bool traceEnabled() { return globalSink != nullptr; }

/**
 * The current simulated tick, maintained by the run loop
 * (cpu/multicore.cc) so records can be stamped from anywhere without
 * threading a clock through every call. thread_local and constinit
 * for the same reasons as globalSink.
 */
extern constinit thread_local Tick curTick;

inline void setCurTick(Tick t) { curTick = t; }

/** Out-of-line recording half of traceEvent(). */
void traceEventSlow(TraceKind kind, std::uint32_t node, std::uint64_t addr,
                    std::uint64_t a, std::uint64_t b);

/**
 * Record an event into the global sink, stamped with the current tick.
 * One inlined branch when tracing is off; safe on hot paths.
 */
inline void
traceEvent(TraceKind kind, std::uint32_t node, std::uint64_t addr = 0,
           std::uint64_t a = 0, std::uint64_t b = 0)
{
    if (globalSink) [[unlikely]]
        traceEventSlow(kind, node, addr, a, b);
}

/** Record a proto_event; @p arg is the scramble of D4Scramble. */
inline void
protoEvent(ProtoEvent e, std::uint32_t node, std::uint64_t addr,
           std::uint64_t arg = 0)
{
    traceEvent(TraceKind::ProtoEvent, node, addr,
               static_cast<std::uint64_t>(e), arg);
}

/** Attach @p sink as the global sink (tests; returns the old one). */
TraceSink *setGlobalSink(TraceSink *sink);

/** Create the global sink from D2M_TRACE_FILE. */
void initFromEnv();

/** D2M_TRACE_FILE as parsed at startup ("" = tracing disabled). The
 * parallel runner derives per-job file names from this. */
const std::string &traceFilePath();

/** Flush this thread's sink if any (called at run end). */
void flushGlobal();

} // namespace d2m::obs

#endif // D2M_OBS_TRACE_HH
