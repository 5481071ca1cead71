#include "noc/message.hh"

namespace d2m
{

const char *
msgTypeName(MsgType t)
{
    switch (t) {
      case MsgType::ReadReq: return "ReadReq";
      case MsgType::ReadExReq: return "ReadExReq";
      case MsgType::UpgradeReq: return "UpgradeReq";
      case MsgType::DataResp: return "DataResp";
      case MsgType::Inv: return "Inv";
      case MsgType::InvAck: return "InvAck";
      case MsgType::FwdReq: return "FwdReq";
      case MsgType::WritebackData: return "WritebackData";
      case MsgType::WritebackClean: return "WritebackClean";
      case MsgType::BackInv: return "BackInv";
      case MsgType::MemRead: return "MemRead";
      case MsgType::MemWrite: return "MemWrite";
      case MsgType::ReadMM: return "ReadMM";
      case MsgType::GetMD: return "GetMD";
      case MsgType::MDReply: return "MDReply";
      case MsgType::EvictReq: return "EvictReq";
      case MsgType::NewMaster: return "NewMaster";
      case MsgType::Done: return "Done";
      case MsgType::MD2Spill: return "MD2Spill";
      case MsgType::PruneNotify: return "PruneNotify";
      case MsgType::PressureUpdate: return "PressureUpdate";
      case MsgType::RegionFlush: return "RegionFlush";
      case MsgType::FlushAck: return "FlushAck";
      case MsgType::NUM_TYPES: break;
    }
    return "?";
}

} // namespace d2m
