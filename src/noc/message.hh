/**
 * @file
 * Interconnect message taxonomy.
 *
 * The message types mirror the protocols in the paper: the classic
 * directory protocol of the baselines, and D2M's unified data+metadata
 * protocol (Appendix, Figure 8). Each type is classified as either
 * basic coherence/data traffic or D2M-only metadata traffic; Figure 5
 * plots the two classes as dark and light bars.
 */

#ifndef D2M_NOC_MESSAGE_HH
#define D2M_NOC_MESSAGE_HH

#include <cstdint>

namespace d2m
{

/** All interconnect message types, across both protocol families. */
enum class MsgType : std::uint8_t
{
    // --- Basic data / coherence traffic (both protocols) -----------
    ReadReq,         //!< Read request toward LLC/directory or master.
    ReadExReq,       //!< Read-exclusive (write miss) request.
    UpgradeReq,      //!< Upgrade S->M without data transfer.
    DataResp,        //!< Data reply (carries one cache line).
    Inv,             //!< Invalidate a cached copy.
    InvAck,          //!< Acknowledge an invalidation.
    FwdReq,          //!< Directory forwards a request to a remote owner.
    WritebackData,   //!< Dirty eviction data (carries one cache line).
    WritebackClean,  //!< Clean eviction notice (baseline inclusive LLC).
    BackInv,         //!< Inclusion back-invalidation (baseline).
    MemRead,         //!< LLC-to-memory-controller read.
    MemWrite,        //!< LLC-to-memory-controller writeback (data).

    // --- D2M-only metadata traffic (Appendix / Section V-B) --------
    ReadMM,          //!< Read-metadata-miss request to MD3 (case D).
    GetMD,           //!< MD3 pulls metadata from a private owner (D2).
    MDReply,         //!< Metadata reply (region LIs + private bit).
    EvictReq,        //!< Master eviction in a shared region (case F).
    NewMaster,       //!< MD3 tells sharers the new master location.
    Done,            //!< Requester unblocks the region at MD3.
    MD2Spill,        //!< Node gives up an MD2 entry (LIs back to MD3).
    PruneNotify,     //!< MD2 pruning heuristic dropped an entry.
    PressureUpdate,  //!< Periodic NS-LLC pressure exchange (IV-B).
    RegionFlush,     //!< MD3 eviction forces a region out of a node.
    FlushAck,        //!< Node finished flushing a region.

    NUM_TYPES
};

/** @return a short printable name for @p t. */
const char *msgTypeName(MsgType t);

/** @return true if @p t is D2M-only metadata traffic. */
constexpr bool
isD2mOnly(MsgType t)
{
    switch (t) {
      case MsgType::ReadMM:
      case MsgType::GetMD:
      case MsgType::MDReply:
      case MsgType::EvictReq:
      case MsgType::NewMaster:
      case MsgType::Done:
      case MsgType::MD2Spill:
      case MsgType::PruneNotify:
      case MsgType::PressureUpdate:
      case MsgType::RegionFlush:
      case MsgType::FlushAck:
        return true;
      default:
        return false;
    }
}

/** @return true if @p t carries a full cache line of data. */
constexpr bool
carriesData(MsgType t)
{
    switch (t) {
      case MsgType::DataResp:
      case MsgType::WritebackData:
      case MsgType::MemWrite:
        return true;
      default:
        return false;
    }
}

/** Payload size in bytes (header + optional line / metadata). */
constexpr unsigned
msgBytes(MsgType t, unsigned line_size)
{
    constexpr unsigned header = 8;
    if (carriesData(t))
        return header + line_size;
    // Metadata replies/spills carry the 16 x 6-bit LI vector plus the
    // presence/private bits: ~16 bytes on the wire.
    if (t == MsgType::MDReply || t == MsgType::MD2Spill ||
        t == MsgType::GetMD) {
        return header + 16;
    }
    return header;
}

} // namespace d2m

#endif // D2M_NOC_MESSAGE_HH
