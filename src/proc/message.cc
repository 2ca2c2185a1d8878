#include "proc/message.hh"

#include "sim/log.hh"

namespace nifdy
{

MessageLayer::MessageLayer(Processor &proc, PacketPool &pool,
                           const MessageParams &params)
    : proc_(proc), pool_(pool), params_(params)
{
    fatal_if(params_.packetWords <= params_.headerWords +
                                        params_.bookkeepingWords,
             "packet too small for header and bookkeeping");
}

int
MessageLayer::payloadPerPacket(bool firstPacket) const
{
    int p = params_.packetWords - params_.headerWords;
    // Out of order: every packet carries its offset. In order: only
    // the first packet carries the transfer's setup information.
    if (!params_.inOrder || firstPacket)
        p -= params_.bookkeepingWords;
    return p;
}

int
MessageLayer::packetsForWords(int words) const
{
    int first = payloadPerPacket(true);
    int rest = payloadPerPacket(false);
    if (words <= first)
        return 1;
    return 1 + (words - first + rest - 1) / rest;
}

void
MessageLayer::enqueueMessage(NodeId dst, int words, NetClass cls)
{
    panic_if(words < 0, "negative message size");
    PendingMsg m;
    m.dst = dst;
    m.packets = packetsForWords(words);
    m.words = words;
    m.cls = cls;
    m.id = nextMsgId_++;
    queue_.push_back(m); // nifdy:alloc-ok(Ring grows to backlog high-water then reuses)
}

void
MessageLayer::enqueuePackets(NodeId dst, int packets, NetClass cls)
{
    panic_if(packets < 1, "empty message");
    PendingMsg m;
    m.dst = dst;
    m.packets = packets;
    // Full packets: the payload is whatever fits.
    m.words = payloadPerPacket(true) +
              (packets - 1) * payloadPerPacket(false);
    m.cls = cls;
    m.id = nextMsgId_++;
    queue_.push_back(m); // nifdy:alloc-ok(Ring grows to backlog high-water then reuses)
}

Packet *
MessageLayer::buildNext(PendingMsg &msg, Cycle now)
{
    Packet *pkt = pool_.alloc();
    pkt->src = proc_.id();
    pkt->dst = msg.dst;
    pkt->netClass = msg.cls;
    pkt->type = PacketType::scalar;
    pkt->sizeBytes = params_.packetWords * bytesPerWord;
    pkt->msgId = msg.id;
    pkt->msgSeq = msg.seq;
    pkt->msgLen = msg.packets;
    pkt->createdAt = now;
    int payload = std::min(msg.words, payloadPerPacket(msg.seq == 0));
    pkt->payloadWords = payload;
    msg.words -= payload;
    // Section 2.2: the communication layer turns on the bulk-mode
    // request bit for transfers above the chosen size threshold.
    if (params_.bulkThreshold > 0 && msg.packets >= params_.bulkThreshold)
        pkt->bulkRequest = true;
    // Mark the end of the transfer so the NIFDY unit can close a
    // bulk dialog with the last packet.
    if (msg.seq == msg.packets - 1)
        pkt->bulkExit = true;
    ++msg.seq;
    return pkt;
}

bool
MessageLayer::pump(Cycle now)
{
    if (!staged_) {
        if (queue_.empty())
            return false;
        staged_ = buildNext(queue_.front(), now);
        if (queue_.front().seq >= queue_.front().packets)
            queue_.pop_front();
    }
    if (!proc_.sendPacket(staged_, now))
        return false;
    staged_ = nullptr;
    ++packetsSent_;
    return true;
}

void
MessageLayer::crashReset(Cycle now)
{
    (void)now;
    if (staged_) {
        // Never injected, so the audit never saw it: a plain release
        // keeps the pool conservation check honest.
        pool_.release(staged_);
        staged_ = nullptr;
    }
    queue_.clear();
}

int
MessageLayer::accept(Packet *pkt, Cycle now)
{
    int words = pkt->payloadWords;
    wordsReceived_ += words;
    // Software reordering penalty for multi-packet transfers that
    // the network may have scrambled.
    if (!params_.inOrder && pkt->msgLen > 1 && params_.reorderCost > 0)
        proc_.compute(params_.reorderCost, now);
    pool_.release(pkt);
    return words;
}

} // namespace nifdy
