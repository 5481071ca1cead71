#include "obs/trace.hh"

#include <cstdlib>

#include "common/logging.hh"
#include "noc/message.hh"
#include "obs/json.hh"
#include "obs/selfprof.hh"

namespace d2m::obs
{

constinit thread_local TraceSink *globalSink = nullptr;
constinit thread_local Tick curTick = 0;

namespace
{

// D2M_TRACE_FILE cached once at startup so worker threads can build
// per-job sinks without re-reading the env.
std::string envTracePath;

constexpr const char *kKindNames[] = {
    "access_issue", "access_complete", "li_hop", "region_class",
    "coh_upgrade", "coh_downgrade", "noc_send", "proto_event",
    "stats_reset", "heartbeat", "selfprof", "run_end",
};
static_assert(sizeof(kKindNames) / sizeof(kKindNames[0]) ==
              static_cast<std::size_t>(TraceKind::NUM_KINDS));

constexpr const char *kProtoEventNames[] = {
    "md1_hit", "md2_hit", "md3_lookup", "d4_scramble", "md2_prune",
    "case_e", "case_f", "md2_spill", "md3_evict", "replicate",
    "pressure_epoch", "llc_back_inv", "dir_forward",
};
static_assert(sizeof(kProtoEventNames) / sizeof(kProtoEventNames[0]) ==
              static_cast<std::size_t>(ProtoEvent::NUM_EVENTS));

/** Owns the env-created global sink so exit flushes it. */
struct GlobalSinkOwner
{
    TraceSink *sink = nullptr;
    ~GlobalSinkOwner()
    {
        if (globalSink == sink)
            globalSink = nullptr;
        delete sink;
    }
} globalOwner;

struct EnvInit
{
    EnvInit()
    {
        // Flush buffered records on every exit path: fatal()/panic()
        // run crash hooks before dying (abort skips destructors), and
        // atexit covers std::exit from third-party code. The hook and
        // the owner's destructor both null-check and clear the
        // buffer, so double flushes write nothing twice.
        registerCrashHook(&flushGlobal);
        std::atexit(&flushGlobal);
        // SIGINT/SIGTERM would otherwise kill the process without
        // running either path above; route them through the crash
        // hooks too so trace tails survive an interrupted run. (The
        // sweep runner layers its own drain handler on top during
        // campaigns; this covers plain runs.)
        installSignalFlushHandlers();
        initFromEnv();
    }
} envInit;

void
append(std::string &out, const char *key, std::uint64_t v)
{
    out += ",\"";
    out += key;
    out += "\":";
    out += json::number(v);
}

void
append(std::string &out, const char *key, const char *v)
{
    out += ",\"";
    out += key;
    out += "\":";
    out += json::quote(v);
}

} // namespace

const char *
traceKindName(TraceKind k)
{
    return kKindNames[static_cast<std::size_t>(k)];
}

std::string
traceToJson(const TraceRecord &rec)
{
    std::string out = "{\"tick\":";
    out += json::number(static_cast<std::uint64_t>(rec.tick));
    out += ",\"kind\":";
    out += json::quote(traceKindName(rec.kind));
    switch (rec.kind) {
      case TraceKind::AccessIssue:
        append(out, "node", rec.node);
        append(out, "line", rec.addr);
        append(out, "op", rec.a);  // 0=ifetch 1=load 2=store
        break;
      case TraceKind::AccessComplete:
        append(out, "node", rec.node);
        append(out, "line", rec.addr);
        append(out, "lat", rec.a);
        append(out, "l1_miss", rec.b);
        break;
      case TraceKind::LiHop:
        append(out, "node", rec.node);
        append(out, "line", rec.addr);
        append(out, "li", rec.a);      // LiKind ordinal
        append(out, "target", rec.b);  // node / slice id
        break;
      case TraceKind::RegionClass:
        append(out, "node", rec.node);
        append(out, "region", rec.addr);
        append(out, "shared", rec.a);  // new classification
        append(out, "was", rec.b);
        break;
      case TraceKind::CohUpgrade:
        append(out, "node", rec.node);
        append(out, "line", rec.addr);
        append(out, "proto_case", rec.a);  // 'B' or 'C'
        break;
      case TraceKind::CohDowngrade:
        append(out, "node", rec.node);
        append(out, "line", rec.addr);
        append(out, "false_inv", rec.a);
        break;
      case TraceKind::NocSend:
        append(out, "src", rec.node);
        append(out, "dst", rec.a);
        append(out, "msg",
               msgTypeName(static_cast<MsgType>(rec.b)));
        append(out, "bytes", rec.addr);
        break;
      case TraceKind::ProtoEvent:
        append(out, "node", rec.node);
        append(out, "addr", rec.addr);
        append(out, "event", kProtoEventNames[rec.a]);
        if (rec.a == static_cast<std::uint64_t>(ProtoEvent::D4Scramble))
            append(out, "scramble", rec.b);
        break;
      case TraceKind::StatsReset:
        break;
      case TraceKind::SelfProf:
        append(out, "site",
               profSiteName(static_cast<ProfSite>(rec.addr)));
        append(out, "samples", rec.a);
        break;
      case TraceKind::Heartbeat:
      case TraceKind::RunEnd:
        append(out, "insts", rec.a);
        append(out, "accesses", rec.addr);
        append(out, "kips", rec.b);
        break;
      case TraceKind::NUM_KINDS:
        break;
    }
    out.push_back('}');
    return out;
}

TraceSink::TraceSink(std::string path, std::size_t capacity)
    : path_(std::move(path)), capacity_(capacity ? capacity : 1)
{
    buf_.reserve(capacity_);
    if (!path_.empty()) {
        file_ = std::fopen(path_.c_str(), "w");
        fatal_if(!file_, "cannot open trace file \"%s\"", path_.c_str());
    }
}

TraceSink::~TraceSink()
{
    flush();
    if (file_)
        std::fclose(file_);
    // Detach so the atexit/crash-hook flush never touches a dead sink.
    if (globalSink == this)
        globalSink = nullptr;
}

void
TraceSink::record(const TraceRecord &rec)
{
    ++recorded_;
    if (buf_.size() < capacity_) {
        buf_.push_back(rec);
        if (file_ && buf_.size() == capacity_)
            flush();
        return;
    }
    // Ring is full and there is no file: wrap, dropping the oldest.
    buf_[head_] = rec;
    head_ = (head_ + 1) % capacity_;
    ++dropped_;
}

void
TraceSink::flush()
{
    if (!file_) {
        return;  // in-memory ring: records stay for snapshot()
    }
    for (std::size_t i = 0; i < buf_.size(); ++i) {
        const TraceRecord &rec = buf_[(head_ + i) % buf_.size()];
        const std::string line = traceToJson(rec);
        std::fwrite(line.data(), 1, line.size(), file_);
        std::fputc('\n', file_);
        ++flushed_;
    }
    std::fflush(file_);
    buf_.clear();
    head_ = 0;
}

std::vector<TraceRecord>
TraceSink::snapshot() const
{
    std::vector<TraceRecord> out;
    out.reserve(buf_.size());
    for (std::size_t i = 0; i < buf_.size(); ++i)
        out.push_back(buf_[(head_ + i) % buf_.size()]);
    return out;
}

void
traceEventSlow(TraceKind kind, std::uint32_t node, std::uint64_t addr,
               std::uint64_t a, std::uint64_t b)
{
    if (!globalSink)
        return;
    globalSink->record({curTick, kind, node, addr, a, b});
}

TraceSink *
setGlobalSink(TraceSink *sink)
{
    TraceSink *old = globalSink;
    globalSink = sink;
    return old;
}

void
initFromEnv()
{
    const char *path = std::getenv("D2M_TRACE_FILE");
    if (!path || !*path)
        return;
    envTracePath = path;
    globalOwner.sink = new TraceSink(envTracePath);
    globalSink = globalOwner.sink;
}

const std::string &
traceFilePath()
{
    return envTracePath;
}

void
flushGlobal()
{
    if (globalSink)
        globalSink->flush();
}

} // namespace d2m::obs
