#include "nic/plainnic.hh"

#include "sim/log.hh"

namespace nifdy
{

BufferedNic::BufferedNic(NodeId node, const Network::NodePorts &ports,
                         const NicParams &params, PacketPool &pool,
                         int outQueue)
    : Nic(node, ports, params, pool), outQueue_(outQueue)
{
    panic_if(outQueue_ < 1, "outgoing queue must hold >= 1 packet");
}

NIFDY_HOT bool
BufferedNic::canSend(const Packet &pkt) const
{
    (void)pkt;
    return static_cast<int>(sendQueue_.size()) < outQueue_;
}

NIFDY_HOT void
BufferedNic::send(Packet *pkt, Cycle now)
{
    panic_if(!canSend(*pkt), "send on full NIC %d", node_);
    pkt->createdAt = now;
    probes_->send(*pkt, node_, now);
    sendQueue_.push_back(pkt); // nifdy:alloc-ok(Ring grows to outQueue high-water then reuses)
    wakeNow();
}

NIFDY_HOT void
BufferedNic::classifyStalls(Cycle now)
{
    for (Packet *pkt : sendQueue_)
        probes_->stall(*pkt,
                       injectBusyWithColl(pkt->netClass)
                           ? StallCause::collDefer
                           : StallCause::injectStall,
                       now);
}

bool
BufferedNic::transitIdle() const
{
    return sendQueue_.empty() && Nic::transitIdle();
}

NIFDY_HOT Packet *
BufferedNic::nextToInject(NetClass cls, Cycle now)
{
    (void)now;
    // Strict FIFO: only the front packet may go (head-of-line
    // blocking across classes is part of this baseline's behavior).
    if (sendQueue_.empty() || sendQueue_.front()->netClass != cls)
        return nullptr;
    Packet *pkt = sendQueue_.front();
    sendQueue_.pop_front();
    return pkt;
}

NIFDY_HOT bool
BufferedNic::injectQueued(NetClass cls) const
{
    return !sendQueue_.empty() && sendQueue_.front()->netClass == cls;
}

void
BufferedNic::onCrash(Cycle now)
{
    while (!sendQueue_.empty()) {
        Packet *pkt = sendQueue_.front();
        sendQueue_.pop_front();
        crashDiscard(pkt, now, "node crashed: queued send discarded");
    }
}

NIFDY_HOT bool
BufferedNic::needsArrivalSlot(const Packet &pkt) const
{
    panic_if(pkt.type == PacketType::ack,
             "protocol-free NIC %d received an ack", node_);
    return true;
}

NIFDY_HOT void
BufferedNic::onPacketDelivered(Packet *pkt, Cycle now)
{
    pushArrival(pkt, now);
}

PlainNic::PlainNic(NodeId node, const Network::NodePorts &ports,
                   NicParams params, PacketPool &pool)
    : BufferedNic(node, ports,
                  [](NicParams p) {
                      p.arrivalFifo = 2;
                      return p;
                  }(params),
                  pool, 1)
{
}

} // namespace nifdy
