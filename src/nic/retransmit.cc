#include "nic/retransmit.hh"

#include <algorithm>

#include "sim/log.hh"

namespace nifdy
{

void
LossyConfig::validate() const
{
    fatal_if(dropProb < 0 || dropProb >= 1.0,
             "lossy.dropProb must be in [0, 1)");
    fatal_if(retxTimeout < 1, "lossy.retxTimeout must be >= 1");
    fatal_if(backoffFactor < 1.0, "lossy.backoffFactor must be >= 1");
    fatal_if(maxRetxTimeout != 0 && maxRetxTimeout < retxTimeout,
             "lossy.maxRetxTimeout must be 0 or >= lossy.retxTimeout");
    fatal_if(jitterFrac < 0 || jitterFrac >= 1.0,
             "lossy.jitterFrac must be in [0, 1)");
    fatal_if(maxRetries < 0, "lossy.maxRetries must be >= 0");
}

LossyNifdyNic::LossyNifdyNic(NodeId node,
                             const Network::NodePorts &ports,
                             const NicParams &params,
                             const NifdyConfig &cfg,
                             const LossyConfig &lossy, PacketPool &pool)
    : NifdyNic(node, ports, params, cfg, pool), lossy_(lossy),
      dropRng_(params.seed, 0xd209 + node),
      backoffRng_(params.seed, 0xb0ff + node)
{
    lossy_.validate();
}

NIFDY_HOT void
LossyNifdyNic::step(Cycle now)
{
    checkTimers(now);
    NifdyNic::step(now);
}

NIFDY_HOT Cycle
LossyNifdyNic::nextWork(Cycle now) const
{
    return std::min(NifdyNic::nextWork(now),
                    std::max(nextDeadline_, now + 1));
}

bool
LossyNifdyNic::transitIdle() const
{
    if (!retxQueue_.empty())
        return false;
    return NifdyNic::transitIdle();
}

Cycle
LossyNifdyNic::scalarRetxTimeout(NodeId dst) const
{
    auto it = scalarRetx_.find(dst);
    return it == scalarRetx_.end() ? 0 : it->second.timeout;
}

Cycle
LossyNifdyNic::jittered(Cycle t)
{
    if (lossy_.jitterFrac <= 0)
        return t;
    Cycle spread =
        static_cast<Cycle>(static_cast<double>(t) * lossy_.jitterFrac);
    if (spread == 0)
        return t;
    return t - spread / 2 + backoffRng_.nextBounded(spread + 1);
}

void
LossyNifdyNic::rearm(Snapshot &snap, Cycle now)
{
    if (lossy_.backoffFactor > 1.0) {
        double next = static_cast<double>(snap.timeout) *
                      lossy_.backoffFactor;
        double cap = static_cast<double>(lossy_.effMaxTimeout());
        snap.timeout = static_cast<Cycle>(std::min(next, cap));
    }
    snap.deadline = now + jittered(snap.timeout);
}

NIFDY_HOT void
LossyNifdyNic::checkTimers(Cycle now)
{
    // No snapshot expires before the earliest deadline, and below it
    // the walk would fire nothing and draw no jitter.
    if (now < nextDeadline_)
        return;
    // Collect peers that exhausted their retry budget; state is
    // purged after the scan so the map iteration stays valid.
    std::vector<NodeId> exhausted;
    auto expire = [&](Snapshot &s) {
        ++timerChecks_;
        if (now < s.deadline)
            return;
        if (lossy_.maxRetries > 0 && s.retries >= lossy_.maxRetries) {
            // nifdy:alloc-ok(fires only when a peer exhausts its retry budget, not steady state)
            exhausted.push_back(s.copy.dst);
            return;
        }
        retransmit(s, now);
        ++s.retries;
        rearm(s, now);
    };
    for (auto &kv : scalarRetx_)
        expire(kv.second);
    for (auto &kv : bulkRetx_)
        expire(kv.second);
    for (NodeId peer : exhausted)
        markPeerDead(peer, now, "retry cap exhausted");
    nextDeadline_ = earliestDeadline();
}

Cycle
LossyNifdyNic::earliestDeadline() const
{
    Cycle t = neverCycle;
    for (const auto &kv : scalarRetx_)
        t = std::min(t, kv.second.deadline);
    for (const auto &kv : bulkRetx_)
        t = std::min(t, kv.second.deadline);
    return t;
}

void
LossyNifdyNic::retransmit(Snapshot &snap, Cycle now)
{
    Packet *p = pool_.alloc();
    std::uint64_t id = p->id;
    *p = snap.copy;
    p->id = id;
    p->routeScratch = 0;
    p->ackIssued = false;
    p->injectedAt = 0;
    // Re-stamp provenance: the clone is created now, carries the
    // attempt number, and points back at the original transmission.
    p->createdAt = now;
    p->cloneOf = snap.origId;
    p->attempt = snap.retries + 1;
    p->corrupted = false;
    retxQueue_.push_back(p); // nifdy:alloc-ok(Ring grows to high-water then reuses)
    ++retransmissions_;
    probes_->retransmit(*p, node_, now);
    noteActivity();
}

void
LossyNifdyNic::purgeRetxState(NodeId peer, Cycle now, bool bulkOnly,
                              const char *why)
{
    // Drop the snapshots themselves (the packets they describe are
    // already terminal in the audit's eyes: delivered, dropped in
    // fabric, or still wedged behind a dead link).
    if (!bulkOnly)
        scalarRetx_.erase(peer);
    for (auto it = bulkRetx_.begin(); it != bulkRetx_.end();) {
        if (it->second.copy.dst == peer)
            it = bulkRetx_.erase(it);
        else
            ++it;
    }
    // Queued-but-not-injected retransmission clones for the peer.
    for (std::size_t i = 0; i < retxQueue_.size();) {
        Packet *p = retxQueue_[i];
        if (p->dst == peer &&
            (!bulkOnly || p->type == PacketType::bulk)) {
            probes_->drop(*p, node_, now, why);
            pool_.release(p);
            retxQueue_.erase(i);
            ++abandoned_;
        } else {
            ++i;
        }
    }
}

void
LossyNifdyNic::onPeerDead(NodeId peer, Cycle now)
{
    purgeRetxState(peer, now, false,
                   "peer dead: retransmission discarded");
}

void
LossyNifdyNic::onBulkTeardown(NodeId peer, Cycle now)
{
    // The dialog's unacked window can never be acked now; its
    // snapshots and queued clones go. The scalar timer (if any)
    // stays: the peer may still be alive and answer it.
    purgeRetxState(peer, now, true,
                   "dialog torn down: retransmission discarded");
}

void
LossyNifdyNic::onPeerRestart(NodeId peer, Cycle now)
{
    // The restarted incarnation's scalar stream starts over; our
    // receive-side duplicate filter must not compare its fresh
    // indices against the dead incarnation's high-water mark.
    recvScalarIdx_.erase(peer);
    NifdyNic::onPeerRestart(peer, now);
}

void
LossyNifdyNic::onCrash(Cycle now)
{
    scalarRetx_.clear();
    bulkRetx_.clear();
    sendScalarIdx_.clear();
    recvScalarIdx_.clear();
    for (Packet *p : retxQueue_)
        crashDiscard(p, now,
                     "node crashed: retransmission discarded");
    retxQueue_.clear();
    NifdyNic::onCrash(now);
}

NIFDY_HOT Packet *
LossyNifdyNic::nextToInject(NetClass cls, Cycle now)
{
    // Acks keep absolute priority; retransmissions come next.
    if (!hasAckQueued(cls) && !retxQueue_.empty()) {
        for (std::size_t i = 0; i < retxQueue_.size(); ++i) {
            Packet *p = retxQueue_[i];
            if (p->netClass == cls) {
                retxQueue_.erase(i);
                return p;
            }
        }
    }
    return NifdyNic::nextToInject(cls, now);
}

NIFDY_HOT bool
LossyNifdyNic::injectQueued(NetClass cls) const
{
    for (const Packet *p : retxQueue_)
        if (p->netClass == cls)
            return true;
    return NifdyNic::injectQueued(cls);
}

NIFDY_HOT void
LossyNifdyNic::onPacketDelivered(Packet *pkt, Cycle now)
{
    // CRC-check analogy: a packet corrupted inside the fabric is
    // discarded here, exactly like a receiver-side loss; the
    // sender's timer recovers it.
    if (pkt->corrupted) {
        ++corruptDropped_;
        probes_->drop(*pkt, node_, now, "corrupted in fabric (CRC)");
        pool_.release(pkt);
        noteActivity();
        return;
    }
    if (lossy_.dropProb > 0 && dropRng_.chance(lossy_.dropProb)) {
        ++packetsDropped_;
        probes_->drop(*pkt, node_, now, "fault-injected drop");
        pool_.release(pkt);
        noteActivity();
        return;
    }
    NifdyNic::onPacketDelivered(pkt, now);
}

void
LossyNifdyNic::onDataInjected(Packet *pkt, Cycle now)
{
    if (pkt->noAck)
        return;
    const bool bulk = pkt->type == PacketType::bulk;
    if (bulk) {
        pkt->dupBit = false;
    } else {
        // Fresh scalar packet: bump the per-destination sequence (the
        // header dupBit is its one-bit compression); retransmissions
        // keep the recorded copy's values.
        std::int64_t idx = sendScalarIdx_[pkt->dst]++;
        pkt->scalarIndex = idx;
        pkt->dupBit = idx & 1;
    }
    Snapshot &s = bulk ? bulkRetx_[bulkSentTotal() - 1]
                       : scalarRetx_[pkt->dst];
    s.copy = *pkt;
    s.deadline = now + jittered(lossy_.retxTimeout);
    nextDeadline_ = std::min(nextDeadline_, s.deadline);
    s.timeout = lossy_.retxTimeout;
    s.firstSent = now;
    s.origId = pkt->id;
    s.retries = 0;
}

void
LossyNifdyNic::onAckProcessed(const Packet &ack, Cycle now)
{
    if (!ack.isBulkAck()) {
        // A dialog-reject answers a bulk packet, not the outstanding
        // scalar: its timer must keep running.
        if (ack.isDialogReject())
            return;
        auto it = scalarRetx_.find(ack.src);
        if (it != scalarRetx_.end()) {
            if (it->second.retries > 0)
                recoveryLatency_.sample(now - it->second.firstSent);
            scalarRetx_.erase(it);
        }
        return;
    }
    // Cumulative bulk ack: clear every snapshot it covers (keys are
    // the monotone send indices).
    auto end = bulkRetx_.lower_bound(ack.ackTotal);
    for (auto it = bulkRetx_.begin(); it != end; ++it)
        if (it->second.retries > 0)
            recoveryLatency_.sample(now - it->second.firstSent);
    bulkRetx_.erase(bulkRetx_.begin(), end);
}

bool
LossyNifdyNic::isDuplicate(Packet &pkt, Cycle now)
{
    if (pkt.type == PacketType::scalar) {
        auto it = recvScalarIdx_.find(pkt.src);
        std::int64_t last = it == recvScalarIdx_.end() ? -1
                                                       : it->second;
        if (pkt.scalarIndex <= last) {
            ++duplicatesSeen_;
            // Repeat the (lost) ack; duplicates never earn a fresh
            // bulk grant.
            queueAck(makeAck(pkt, now, false));
            return true;
        }
        recvScalarIdx_[pkt.src] = pkt.scalarIndex;
        return false;
    }
    if (pkt.type == PacketType::bulk) {
        if (bulkPacketAcceptable(pkt))
            return false;
        ++duplicatesSeen_;
        if (bulkDialogMatches(pkt)) {
            // Already delivered, or a second copy of a buffered
            // index: repeat the cumulative ack at the frontier.
            cumulativeAck(pkt.dialog, now);
            return true;
        }
        std::int64_t tomb = dialogTombstone(pkt.src);
        if (tomb <= 0) {
            // No record of this dialog at all: this incarnation
            // never granted it (we restarted cold, or the sender is
            // confused). Tell it to tear the dialog down.
            queueAck(makeDialogReject(pkt, now));
            return true;
        }
        // Late duplicate for a dialog that has been closed (or its
        // slot reused by another sender): repeat the final ack from
        // the tombstone so the sender can finish closing.
        Packet *ack = newAck(pkt.src, pkt.netClass, pkt.srcEpoch, now);
        ack->ackDialog = pkt.dialog;
        ack->ackSeq = bulkSeq(tomb - 1, config().window);
        ack->ackTotal = tomb;
        queueAck(ack);
        return true;
    }
    return false;
}

} // namespace nifdy
