/**
 * @file
 * The on-chip interconnect.
 *
 * A single-hop crossbar connecting all nodes with the far side (LLC,
 * directory / MD3, memory controller). Endpoint ids 0..N-1 are nodes;
 * endpoint N is the far side. A transfer between a node and itself
 * (e.g. a near-side LLC slice access) costs no interconnect traffic
 * and no hop latency — that asymmetry is the heart of the NS-LLC
 * optimization (Section IV-B).
 *
 * The interconnect performs all message/byte accounting used by
 * Figure 5 and feeds per-byte transfer energy into the energy model.
 */

#ifndef D2M_NOC_INTERCONNECT_HH
#define D2M_NOC_INTERCONNECT_HH

#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"
#include "noc/message.hh"
#include "obs/selfprof.hh"
#include "obs/trace.hh"
#include "sim/sim_object.hh"

namespace d2m
{

/** Endpoint id of the far side (LLC / directory / MD3 / memory). */
constexpr std::uint32_t farSideEndpoint(unsigned num_nodes)
{
    return num_nodes;
}

/** Crossbar interconnect with per-message-type accounting. */
class Interconnect : public SimObject
{
  public:
    Interconnect(std::string name, SimObject *parent, unsigned num_nodes,
                 unsigned line_size, Cycles hop_latency)
        : SimObject(std::move(name), parent),
          totalMessages(this, "messages", "total interconnect messages"),
          totalBytes(this, "bytes", "total interconnect bytes"),
          d2mMessages(this, "d2mMessages",
                      "D2M-only metadata messages (Fig 5 light bars)"),
          dataBytes(this, "dataBytes", "bytes of line-data payload"),
          sendDelay(this, "sendDelay",
                    "per-message NoC delay distribution"),
          numNodes_(num_nodes), lineSize_(line_size),
          hopLatency_(hop_latency)
    {
        perType_.fill(0);
    }

    /**
     * Send one message from endpoint @p src to endpoint @p dst.
     * @return the latency contribution (0 for same-endpoint transfers).
     */
    Cycles
    send(std::uint32_t src, std::uint32_t dst, MsgType type)
    {
        panic_if(src > numNodes_ || dst > numNodes_,
                 "bad interconnect endpoint %u -> %u", src, dst);
        if (src == dst)
            return 0;  // near-side access: never crosses the NoC
        obs::ProfScope prof(obs::ProfSite::NocSend);
        const unsigned bytes = msgBytes(type, lineSize_);
        ++totalMessages;
        totalBytes += bytes;
        if (isD2mOnly(type))
            ++d2mMessages;
        if (carriesData(type))
            dataBytes += lineSize_;
        ++perType_[static_cast<size_t>(type)];
        // Exactly one noc_send trace record per counted message, so
        // post-hoc message counts recomputed from the trace match the
        // Stats counters bit-for-bit.
        obs::traceEvent(obs::TraceKind::NocSend, src, bytes, dst,
                        static_cast<std::uint64_t>(type));
        sendDelay.sample(hopLatency_);
        return hopLatency_;
    }

    /**
     * Multicast @p type from @p src to every node whose bit is set in
     * @p dest_mask (excluding @p src itself).
     * @return the one-hop latency if anything was sent, else 0.
     */
    Cycles
    multicast(std::uint32_t src, std::uint64_t dest_mask, MsgType type)
    {
        Cycles lat = 0;
        for (std::uint32_t n = 0; n < numNodes_; ++n) {
            if (n == src || !((dest_mask >> n) & 1))
                continue;
            lat = std::max(lat, send(src, n, type));
        }
        return lat;
    }

    std::uint64_t
    countOf(MsgType type) const
    {
        return perType_[static_cast<size_t>(type)];
    }

    unsigned numNodes() const { return numNodes_; }

    void
    resetStats() override
    {
        StatGroup::resetStats();
        perType_.fill(0);
    }

    stats::Counter totalMessages;
    stats::Counter totalBytes;
    stats::Counter d2mMessages;
    stats::Counter dataBytes;
    stats::Histogram2 sendDelay;

  private:
    unsigned numNodes_;
    unsigned lineSize_;
    Cycles hopLatency_;
    std::array<std::uint64_t, static_cast<size_t>(MsgType::NUM_TYPES)>
        perType_;
};

} // namespace d2m

#endif // D2M_NOC_INTERCONNECT_HH
