#include "obs/profiler.hh"

#include "common/env.hh"
#include "common/logging.hh"
#include "obs/trace.hh"

namespace d2m::obs
{

SimRateProfiler::SimRateProfiler()
    : SimRateProfiler(envU64("D2M_HEARTBEAT", 0) * 1'000'000)
{}

SimRateProfiler::SimRateProfiler(std::uint64_t heartbeat_insts)
    : start_(Clock::now()), resetTime_(start_),
      heartbeatInsts_(heartbeat_insts), nextBeat_(heartbeat_insts)
{}

double
SimRateProfiler::secondsSince(Clock::time_point t0) const
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

void
SimRateProfiler::phaseReset()
{
    resetTime_ = Clock::now();
    reset_ = true;
    warmupWallSec_ = std::chrono::duration<double>(resetTime_ - start_)
                         .count();
}

void
SimRateProfiler::finish(std::uint64_t measured_insts)
{
    measureWallSec_ = secondsSince(reset_ ? resetTime_ : start_);
    if (!reset_)
        warmupWallSec_ = 0.0;
    kips_ = measureWallSec_ > 0.0
                ? static_cast<double>(measured_insts) /
                      measureWallSec_ / 1000.0
                : 0.0;
}

bool
SimRateProfiler::heartbeatFire(std::uint64_t committed_insts,
                               std::uint64_t accesses)
{
    while (nextBeat_ <= committed_insts)
        nextBeat_ += heartbeatInsts_;
    ++heartbeats_;
    const double wall = secondsSince(start_);
    const double rate =
        wall > 0.0 ? static_cast<double>(committed_insts) / wall / 1000.0
                   : 0.0;
    inform("progress: %.1f Minsts, tick %llu, %.0f KIPS (wall %.1fs)",
           static_cast<double>(committed_insts) / 1e6,
           static_cast<unsigned long long>(curTick), rate, wall);
    traceEvent(TraceKind::Heartbeat, 0, accesses, committed_insts,
               static_cast<std::uint64_t>(rate));
    return true;
}

} // namespace d2m::obs
