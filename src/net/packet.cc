#include "net/packet.hh"

#include <sstream>

#include "sim/log.hh"
#include "sim/probes.hh"

namespace nifdy
{

const char *
packetTypeName(PacketType t)
{
    switch (t) {
      case PacketType::scalar:
        return "scalar";
      case PacketType::bulk:
        return "bulk";
      case PacketType::ack:
        return "ack";
      case PacketType::coll:
        return "coll";
    }
    return "?";
}

std::string
Packet::toString() const
{
    std::ostringstream os;
    os << "pkt#" << id << " " << packetTypeName(type) << " " << src
       << "->" << dst << " " << netClassName(netClass) << " "
       << sizeBytes << "B";
    if (type == PacketType::bulk)
        os << " dlg=" << dialog << " seq=" << seq;
    if (type == PacketType::ack) {
        os << " ackSeq=" << ackSeq << " ackDlg=" << ackDialog;
        if (ackGrantsBulk)
            os << " grant";
        if (ackRejectsBulk)
            os << " reject";
    }
    if (type == PacketType::coll) {
        os << " cseq=" << collSeq << " ckind=" << int(collKind)
           << " cop=" << int(collOp) << " rnd=" << collRound
           << " cval=" << collValue << " cnt=" << collCount;
        if (collDegraded)
            os << " degraded";
    }
    if (bulkRequest)
        os << " breq";
    if (bulkExit)
        os << " bexit";
    if (srcEpoch)
        os << " epoch=" << srcEpoch;
    if (type == PacketType::ack && ackEpoch)
        os << " ackEpoch=" << ackEpoch;
    if (corrupted)
        os << " corrupt";
    if (cloneOf)
        os << " retx#" << attempt << " of pkt#" << cloneOf;
    return os.str();
}

PacketPool::PacketPool() : probes_(&noProbes) {}

Packet *
PacketPool::alloc()
{
    Packet *p;
    if (freelist_.empty()) {
        arena_.push_back(std::make_unique<Packet>());
        p = arena_.back().get();
    } else {
        p = freelist_.back();
        freelist_.pop_back();
        *p = Packet();
    }
    p->id = nextId_++;
    ++allocated_;
    probes_->alloc(*p);
    return p;
}

void
PacketPool::release(Packet *pkt)
{
    panic_if(pkt == nullptr, "PacketPool::release(nullptr)");
    probes_->release(*pkt);
    ++released_;
    freelist_.push_back(pkt);
}

} // namespace nifdy
