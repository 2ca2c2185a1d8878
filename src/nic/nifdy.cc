#include "nic/nifdy.hh"

#include <algorithm>

#include "sim/anatomy.hh"
#include "sim/log.hh"
#include "sim/trace.hh"

namespace nifdy
{

NifdyNic::NifdyNic(NodeId node, const Network::NodePorts &ports,
                   const NicParams &params, const NifdyConfig &cfg,
                   PacketPool &pool)
    : Nic(node, ports, params, pool), cfg_(cfg)
{
    fatal_if(cfg_.opt < 1, "NIFDY needs O >= 1");
    fatal_if(cfg_.pool < 1, "NIFDY needs B >= 1");
    fatal_if(cfg_.dialogs < 0 || cfg_.window < 0,
             "negative bulk parameters");
    sendPool_.reserve(cfg_.pool);
    opt_.reserve(cfg_.opt);
    in_.resize(std::max(cfg_.dialogs, 0));
}

bool
NifdyNic::canSend(const Packet &pkt) const
{
    // A dead peer accepts anything: send() discards it immediately,
    // so the processor can keep making progress instead of spinning
    // on a pool slot that will never clear.
    if (isPeerDead(pkt.dst))
        return true;
    return static_cast<int>(sendPool_.size()) < cfg_.pool;
}

void
NifdyNic::send(Packet *pkt, Cycle now)
{
    if (isPeerDead(pkt->dst)) {
        ++sendsToDeadPeers_;
        probes_->drop(*pkt, node_, now, "peer dead: send discarded");
        pool_.release(pkt);
        noteActivity();
        return;
    }
    panic_if(!canSend(*pkt), "send on full NIFDY pool, node %d", node_);
    pkt->createdAt = now;
    probes_->send(*pkt, node_, now);
    sendPool_.push_back(pkt);
    admissionChanged();
    wakeNow();
    // Record a deferral when protocol admission (OPT slot, window
    // room, per-destination order) cannot be immediate; the matching
    // opt.admit/window.admit event closes the gap on the timeline.
    if (probes_->tracer() && !pkt->noAck &&
        !eligibleScalar(*pkt, sendPool_.size() - 1))
        probes_->mark(ev::optDefer, *pkt, node_, now);
}

NIFDY_HOT void
NifdyNic::step(Cycle now)
{
    if (reclaimTimeout_ > 0)
        reclaimStalled(now);
    Nic::step(now);
}

NIFDY_HOT Cycle
NifdyNic::nextWork(Cycle now) const
{
    return reclaimTimeout_ > 0 ? now + 1 : Nic::nextWork(now);
}

bool
NifdyNic::peerSilent(NodeId peer, Cycle now) const
{
    auto it = peers_.find(peer);
    Cycle heard = it == peers_.end() ? 0 : it->second.lastHeard;
    return now - heard >= reclaimTimeout_;
}

void
NifdyNic::reclaimStalled(Cycle now)
{
    // A stalled clock alone is not proof of death: a busy peer that
    // keeps rejecting bulk requests is still talking (every valid
    // arrival refreshes its lastHeard). Reclaim only when the state
    // aimed at the peer is stuck AND the peer has been silent for
    // the whole window.
    std::vector<NodeId> stalled;
    for (std::size_t i = 0; i < opt_.size(); ++i)
        if (now - optSince_[i] >= reclaimTimeout_ &&
            peerSilent(opt_[i], now) && !isPeerDead(opt_[i]))
            stalled.push_back(opt_[i]);
    if ((out_.active || out_.requested) && out_.peer != invalidNode &&
        now - out_.lastProgress >= reclaimTimeout_ &&
        peerSilent(out_.peer, now) && !isPeerDead(out_.peer))
        stalled.push_back(out_.peer);
    // Receiver side: a granted window whose sender fell silent would
    // otherwise pin the dialog slot and its buffered packets forever.
    for (const InDialog &dlg : in_)
        if (dlg.active && now - dlg.lastProgress >= reclaimTimeout_ &&
            peerSilent(dlg.src, now) && !isPeerDead(dlg.src))
            stalled.push_back(dlg.src);
    for (NodeId peer : stalled)
        markPeerDead(peer, now, "reclaim timeout");
}

bool
NifdyNic::isPeerDead(NodeId peer) const
{
    return std::find(deadPeers_.begin(), deadPeers_.end(), peer) !=
           deadPeers_.end();
}

void
NifdyNic::resurrectPeer(NodeId peer)
{
    auto it = std::find(deadPeers_.begin(), deadPeers_.end(), peer);
    if (it != deadPeers_.end())
        deadPeers_.erase(it);
}

void
NifdyNic::markPeerDead(NodeId peer, Cycle now, const char *why)
{
    if (isPeerDead(peer))
        return;
    deadPeers_.push_back(peer);
    // Subclass state first (retransmission snapshots and queues),
    // then the base protocol state.
    onPeerDead(peer, now);
    abandoned_ +=
        static_cast<std::uint64_t>(abandonPeer(peer, now));
    warn("node %d: peer %d declared dead (%s) at cycle %llu; "
         "discarding its traffic from here on",
         node_, peer, why, static_cast<unsigned long long>(now));
    noteActivity();
}

std::uint32_t
NifdyNic::knownEpoch(NodeId peer) const
{
    auto it = peers_.find(peer);
    return it == peers_.end() ? 0 : it->second.epoch;
}

int
NifdyNic::activeInDialogs() const
{
    int n = 0;
    for (const InDialog &d : in_)
        n += d.active ? 1 : 0;
    return n;
}

bool
NifdyNic::transitIdle() const
{
    if (!sendPool_.empty() || !ackQueue_.empty() || !opt_.empty())
        return false;
    if (out_.active || out_.requested)
        return false;
    for (const InDialog &d : in_)
        if (d.active)
            return false;
    return Nic::transitIdle();
}

bool
NifdyNic::eligibleScalar(const Packet &pkt, std::size_t idx) const
{
    return !admissionBlock(pkt, idx);
}

std::optional<StallCause>
NifdyNic::admissionBlock(const Packet &pkt, std::size_t idx) const
{
    // Reads only sendPool_, opt_, out_ and cfg_, never the cycle:
    // nextToInject() skips a scan while none of them has changed, so
    // a new reader must call admissionChanged() from its writers.
    //
    // Section 6.1: no-ack packets bypass the protocol entirely.
    if (pkt.noAck)
        return std::nullopt;
    // Per-destination FIFO order: only the oldest queued packet for
    // this destination may go (the rank/eligibility unit).
    for (std::size_t j = 0; j < idx; ++j)
        if (sendPool_[j]->dst == pkt.dst)
            return StallCause::ackWait;
    if (out_.active && pkt.dst == out_.peer) {
        // Bulk dialog: another class would break the dialog's ordering
        // domain, and a draining dialog waits for its close.
        if (pkt.netClass != out_.cls || out_.exitSent ||
            out_.closePending || out_.unacked() >= out_.window)
            return StallCause::windowClosed;
        return std::nullopt;
    }
    // Scalar: one outstanding packet per destination, bounded by O.
    for (NodeId d : opt_)
        if (d == pkt.dst)
            return StallCause::optSlot;
    if (static_cast<int>(opt_.size()) >= cfg_.opt)
        return StallCause::optCap;
    return std::nullopt;
}

bool
NifdyNic::poolAdmits(NetClass cls) const
{
    for (std::size_t i = 0; i < sendPool_.size(); ++i)
        if (sendPool_[i]->netClass == cls &&
            eligibleScalar(*sendPool_[i], i))
            return true;
    return false;
}

void
NifdyNic::labelBulk(Packet *pkt, Cycle now)
{
    pkt->type = PacketType::bulk;
    pkt->dialog = static_cast<std::int16_t>(out_.dialog);
    pkt->bulkIndex = out_.sentTotal;
    pkt->seq = bulkSeq(out_.sentTotal, out_.window);
    ++out_.sentTotal;
    out_.lastProgress = now;
}

Packet *
NifdyNic::takeFromPool(std::size_t idx, Cycle now)
{
    Packet *pkt = sendPool_[idx];
    sendPool_.erase(sendPool_.begin() + idx);
    admissionChanged();

    if (pkt->noAck) {
        pkt->bulkRequest = false;
        pkt->bulkExit = false;
        onDataInjected(pkt, now);
        return pkt;
    }

    if (out_.active && pkt->dst == out_.peer) {
        // Bulk conversion at injection time.
        labelBulk(pkt, now);
        pkt->bulkRequest = false;
        if (pkt->bulkExit) {
            // Keep the dialog open across back-to-back transfers,
            // but only if a later queued packet for this peer also
            // carries an end-of-transfer mark (otherwise the dialog
            // could stay open forever).
            bool laterExit = false;
            for (const Packet *p : sendPool_)
                if (p->dst == out_.peer && p->bulkExit) {
                    laterExit = true;
                    break;
                }
            if (laterExit)
                pkt->bulkExit = false;
            else
                out_.exitSent = true;
        }
        ++bulkPacketsSent_;
        probes_->mark(ev::windowAdmit, *pkt, node_, now);
        onDataInjected(pkt, now);
        return pkt;
    }

    // Scalar injection.
    pkt->type = PacketType::scalar;
    pkt->bulkExit = false;
    if (cfg_.piggybackAcks)
        tryPiggyback(pkt, now);
    if (pkt->bulkRequest) {
        if (!cfg_.bulkEnabled() || out_.active || out_.requested) {
            pkt->bulkRequest = false;
        } else {
            out_.requested = true;
            out_.peer = pkt->dst;
            out_.cls = pkt->netClass;
            out_.lastProgress = now;
        }
    }
    opt_.push_back(pkt->dst);
    optSince_.push_back(now);
    panic_if(static_cast<int>(opt_.size()) > cfg_.opt,
             "OPT overflow on node %d", node_);
    probes_->mark(ev::optAdmit, *pkt, node_, now);
    onDataInjected(pkt, now);
    return pkt;
}

NIFDY_HOT Packet *
NifdyNic::nextToInject(NetClass cls, Cycle now)
{
    // Acks first: they are small and the protocol depends on them.
    // Acks being held for a piggyback opportunity (Section 6.1)
    // stay queued until their deadline.
    for (std::size_t i = 0; i < ackQueue_.size(); ++i) {
        Packet *ack = ackQueue_[i];
        if (ack->netClass == cls && ack->holdUntil <= now) {
            ackQueue_.erase(i);
            ++acksSent_;
            return ack;
        }
    }

    // A granted dialog with nothing to say must still be closed.
    if (out_.active && out_.closePending && out_.cls == cls) {
        Packet *pkt = pool_.alloc();
        pkt->src = node_;
        pkt->dst = out_.peer;
        pkt->netClass = cls;
        pkt->ctrlOnly = true;
        pkt->bulkExit = true;
        pkt->sizeBytes = cfg_.ackBytes;
        pkt->payloadWords = 0;
        pkt->createdAt = now;
        labelBulk(pkt, now);
        out_.exitSent = true;
        out_.closePending = false;
        admissionChanged();
        onDataInjected(pkt, now);
        return pkt;
    }

    // A scan that found nothing admissible finds nothing again until
    // the state admissionBlock() reads changes.
    bool &blocked = poolBlocked_[static_cast<int>(cls)];
    if (blocked)
        return nullptr;
    for (std::size_t i = 0; i < sendPool_.size(); ++i) {
        if (sendPool_[i]->netClass != cls)
            continue;
        ++admissionChecks_;
        if (eligibleScalar(*sendPool_[i], i))
            return takeFromPool(i, now);
    }
    blocked = true;
    return nullptr;
}

NIFDY_HOT bool
NifdyNic::injectQueued(NetClass cls) const
{
    if (!sendPool_.empty() && !poolBlocked_[static_cast<int>(cls)])
        return true;
    return (out_.closePending && out_.cls == cls) || hasAckQueued(cls);
}

NIFDY_HOT bool
NifdyNic::needsArrivalSlot(const Packet &pkt) const
{
    return pkt.type == PacketType::scalar;
}

NIFDY_HOT void
NifdyNic::tryPiggyback(Packet *pkt, Cycle now)
{
    (void)now;
    for (std::size_t i = 0; i < ackQueue_.size(); ++i) {
        Packet *ack = ackQueue_[i];
        // Only scalar acks (no cumulative bulk state) riding in the
        // same logical network as the outgoing data.
        if (ack->isBulkAck() || ack->dst != pkt->dst ||
            ack->netClass != pkt->netClass)
            continue;
        pkt->piggyAck = true;
        pkt->ackGrantsBulk = ack->ackGrantsBulk;
        pkt->ackRejectsBulk = ack->ackRejectsBulk;
        pkt->ackDialog = ack->ackDialog;
        pkt->ackWindow = ack->ackWindow;
        pkt->ackEpoch = ack->ackEpoch;
        ackQueue_.erase(i);
        probes_->consume(*ack, node_, "merged into piggyback header");
        pool_.release(ack);
        ++acksPiggybacked_;
        return;
    }
}

Packet *
NifdyNic::newAck(NodeId dst, NetClass dataClass, std::uint32_t epoch,
                 Cycle now)
{
    Packet *ack = pool_.alloc();
    ack->type = PacketType::ack;
    ack->src = node_;
    ack->dst = dst;
    ack->netClass = oppositeClass(dataClass);
    ack->sizeBytes = cfg_.ackBytes;
    ack->createdAt = now;
    // Echo the data's incarnation epoch so the sender's gate can
    // discard acks answering a previous incarnation of itself.
    ack->ackEpoch = epoch;
    return ack;
}

Packet *
NifdyNic::makeAck(const Packet &dataPkt, Cycle now, bool allowFreshGrant)
{
    Packet *ack = newAck(dataPkt.src, dataPkt.netClass, dataPkt.srcEpoch,
                         now);

    if (dataPkt.type == PacketType::scalar && dataPkt.bulkRequest &&
        cfg_.bulkEnabled()) {
        // Grant a dialog if one is free; otherwise say no.
        int freeSlot = -1;
        int existing = -1;
        for (int i = 0; i < cfg_.dialogs; ++i) {
            if (!in_[i].active && freeSlot < 0)
                freeSlot = i;
            if (in_[i].active && in_[i].src == dataPkt.src)
                existing = i;
        }
        if (existing >= 0) {
            InDialog &d = in_[existing];
            if (allowFreshGrant &&
                (d.delivered > 0 || d.buffered > 0 ||
                 d.exitDelivered)) {
                // A fresh (non-duplicate) request for a dialog that
                // already carried data: the sender's side of the
                // dialog is gone (torn down after a crash/restart),
                // so restart the transfer from index zero.
                for (Packet *&slot : d.slots) {
                    if (!slot)
                        continue;
                    probes_->drop(*slot, node_, now,
                                  "dialog restarted: slot discarded");
                    pool_.release(slot);
                    slot = nullptr;
                }
                d.delivered = 0;
                d.ackedAt = 0;
                d.buffered = 0;
                d.exitDelivered = false;
                d.lastProgress = now;
                d.traceAckPending.clear();
            }
            // Re-grant the same dialog idempotently (duplicate
            // request packets reach here too, with allowFreshGrant
            // false, and must not disturb the live transfer).
            ack->ackGrantsBulk = true;
            ack->ackDialog = static_cast<std::int16_t>(existing);
            ack->ackWindow = static_cast<std::int16_t>(cfg_.window);
        } else if (freeSlot >= 0 && allowFreshGrant) {
            InDialog &d = in_[freeSlot];
            d.active = true;
            d.src = dataPkt.src;
            d.cls = dataPkt.netClass;
            d.delivered = 0;
            d.ackedAt = 0;
            d.slots.assign(cfg_.window, nullptr);
            d.buffered = 0;
            d.exitDelivered = false;
            d.lastProgress = now;
            ack->ackGrantsBulk = true;
            ack->ackDialog = static_cast<std::int16_t>(freeSlot);
            ack->ackWindow = static_cast<std::int16_t>(cfg_.window);
            ++bulkGrants_;
        } else {
            ack->ackRejectsBulk = true;
            ++bulkRejects_;
        }
    }
    return ack;
}

Packet *
NifdyNic::makeDialogReject(const Packet &bulkPkt, Cycle now)
{
    Packet *ack = newAck(bulkPkt.src, bulkPkt.netClass, bulkPkt.srcEpoch,
                         now);
    // ackSeq stays -1: the sender reads this as a scalar-form ack
    // whose reject bit plus dialog number tears down the dialog.
    ack->ackRejectsBulk = true;
    ack->ackDialog = bulkPkt.dialog;
    return ack;
}

void
NifdyNic::teardownOutDialog(Cycle now, const char *why)
{
    (void)why;
    if (!out_.active && !out_.requested)
        return;
    NodeId peer = out_.peer;
    out_ = OutDialog();
    admissionChanged();
    ++dialogTeardowns_;
    onBulkTeardown(peer, now);
    // Let a live (restarted) peer re-establish the transfer: the
    // first still-queued packet for it re-requests a dialog.
    for (Packet *p : sendPool_) {
        if (p->dst == peer && !p->noAck) {
            p->bulkRequest = true;
            break;
        }
    }
    noteActivity();
}

int
NifdyNic::dropInDialogsFrom(NodeId peer, Cycle now, const char *why)
{
    int released = 0;
    for (InDialog &dlg : in_) {
        if (!dlg.active || dlg.src != peer)
            continue;
        for (Packet *&slot : dlg.slots) {
            if (!slot)
                continue;
            probes_->drop(*slot, node_, now, why);
            pool_.release(slot);
            slot = nullptr;
            ++released;
        }
        dlg.reset();
        ++dialogTeardowns_;
    }
    return released;
}

void
NifdyNic::onPeerRestart(NodeId peer, Cycle now)
{
    // Receive dialogs from the peer died with its old incarnation;
    // buffered window slots are released as drops (never reached the
    // processor) and the slot is freed for a fresh grant.
    dropInDialogsFrom(peer, now, "peer restarted: dialog abandoned");
    // A tombstone from the old incarnation must not final-ack the
    // new incarnation's duplicates.
    if (static_cast<std::size_t>(peer) < tombstones_.size())
        tombstones_[static_cast<std::size_t>(peer)] = 0;
    if ((out_.active || out_.requested) && out_.peer == peer)
        teardownOutDialog(now, "peer restarted");
    noteActivity();
}

void
NifdyNic::onBulkTeardown(NodeId peer, Cycle now)
{
    (void)peer;
    (void)now;
}

void
NifdyNic::onPeerDead(NodeId peer, Cycle now)
{
    (void)peer;
    (void)now;
}

NIFDY_HOT void
NifdyNic::queueAck(Packet *ack)
{
    ackQueue_.push_back(ack); // nifdy:alloc-ok(Ring grows to high-water then reuses)
}

NIFDY_HOT bool
NifdyNic::hasAckQueued(NetClass cls) const
{
    for (const Packet *p : ackQueue_)
        if (p->netClass == cls)
            return true;
    return false;
}

bool
NifdyNic::clearOpt(NodeId dst)
{
    for (std::size_t i = 0; i < opt_.size(); ++i) {
        if (opt_[i] == dst) {
            opt_.erase(opt_.begin() + i);
            optSince_.erase(optSince_.begin() + i);
            return true;
        }
    }
    return false;
}

int
NifdyNic::abandonPeer(NodeId peer, Cycle now)
{
    int released = 0;
    clearOpt(peer);
    admissionChanged();
    if ((out_.active || out_.requested) && out_.peer == peer)
        teardownOutDialog(now, "peer abandoned");
    released +=
        dropInDialogsFrom(peer, now, "peer dead: dialog abandoned");
    for (std::size_t i = sendPool_.size(); i > 0; --i) {
        Packet *p = sendPool_[i - 1];
        if (p->dst != peer)
            continue;
        probes_->drop(*p, node_, now, "peer dead: queued send discarded");
        pool_.release(p);
        sendPool_.erase(sendPool_.begin() +
                        static_cast<std::ptrdiff_t>(i - 1));
        ++released;
    }
    for (std::size_t i = 0; i < ackQueue_.size();) {
        Packet *ack = ackQueue_[i];
        if (ack->dst == peer) {
            probes_->drop(*ack, node_, now,
                          "peer dead: queued ack discarded");
            pool_.release(ack);
            ackQueue_.erase(i);
            ++released;
        } else {
            ++i;
        }
    }
    return released;
}

void
NifdyNic::issueScalarAck(Packet *pkt, Cycle now)
{
    if (pkt->noAck || pkt->ackIssued)
        return;
    pkt->ackIssued = true;
    Packet *ack = makeAck(*pkt, now);
    if (cfg_.piggybackAcks && pkt->expectsReply)
        ack->holdUntil = now + cfg_.piggybackWait;
    queueAck(ack);
    probes_->mark(ev::ackIssue, *pkt, node_, now);
}

void
NifdyNic::rejectStaleEpoch(Packet *pkt, Cycle now, const char *why)
{
    ++epochRejects_;
    probes_->epochReject(*pkt, node_, now, why);
    pool_.release(pkt);
    noteActivity();
}

bool
NifdyNic::epochAdmit(Packet *pkt, Cycle now)
{
    // Data direction: the source's incarnation. Older than the
    // latest seen means the packet was injected by a dead
    // incarnation; newer means the peer restarted -- adopt the new
    // epoch and resync every piece of per-peer state first.
    PeerState &peer = peers_[pkt->src];
    if (pkt->srcEpoch < peer.epoch) {
        rejectStaleEpoch(pkt, now, "stale incarnation epoch");
        return false;
    }
    if (pkt->srcEpoch > peer.epoch) {
        peer.epoch = pkt->srcEpoch;
        onPeerRestart(pkt->src, now);
    }
    // Any valid arrival proves the peer is reachable again, and
    // refreshes the reclaim liveness clock.
    peer.lastHeard = now;
    resurrectPeer(pkt->src);

    // Ack direction: an ack answering data injected by a previous
    // incarnation of *this* node must not clear current state.
    if (pkt->type == PacketType::ack && pkt->ackEpoch != epoch()) {
        rejectStaleEpoch(pkt, now, "ack for a previous incarnation");
        return false;
    }
    if (pkt->piggyAck && pkt->ackEpoch != epoch()) {
        // Piggybacked stale ack: strip the ack, keep the data.
        pkt->piggyAck = false;
        ++epochRejects_;
    }
    return true;
}

NIFDY_HOT void
NifdyNic::onPacketDelivered(Packet *pkt, Cycle now)
{
    if (!epochAdmit(pkt, now))
        return;

    if (pkt->type == PacketType::ack) {
        applyAck(*pkt, now);
        probes_->consume(*pkt, node_, "ack absorbed");
        pool_.release(pkt);
        return;
    }

    // A piggybacked ack is consumed here even when the data packet
    // itself turns out to be a duplicate (ack handling is
    // idempotent).
    if (pkt->piggyAck)
        applyAck(*pkt, now);

    if (isDuplicate(*pkt, now)) {
        // Section 6.2: a retransmission of something already seen.
        // The subclass has already queued the repeated ack.
        probes_->drop(*pkt, node_, now, "duplicate filtered");
        pool_.release(pkt);
        return;
    }

    if (pkt->type == PacketType::scalar) {
        pushArrival(pkt, now);
        if (!cfg_.ackOnAccept)
            issueScalarAck(pkt, now);
        return;
    }

    // Bulk data packet: insert into the dialog's reorder window.
    int d = pkt->dialog;
    if (expectPeerFailures_ && !bulkPacketAcceptable(*pkt)) {
        // A crash/restart run legitimately produces bulk packets
        // this incarnation has no dialog for (we restarted cold) or
        // whose index predates a restarted transfer. Answer so the
        // sender recovers instead of panicking.
        const char *why;
        if (bulkDialogMatches(*pkt)) {
            cumulativeAck(d, now);
            why = "stale bulk index (restarted dialog)";
        } else {
            queueAck(makeDialogReject(*pkt, now));
            why = "unknown bulk dialog (cold receiver)";
        }
        probes_->drop(*pkt, node_, now, why);
        pool_.release(pkt);
        noteActivity();
        return;
    }
    panic_if(d < 0 || d >= static_cast<int>(in_.size()),
             "bulk packet with bad dialog %d on node %d", d, node_);
    InDialog &dlg = in_[d];
    panic_if(!dlg.active, "bulk packet on inactive dialog, node %d",
             node_);
    panic_if(dlg.src != pkt->src,
             "bulk packet from wrong source on node %d", node_);
    panic_if(pkt->bulkIndex < dlg.delivered ||
                 pkt->bulkIndex >= dlg.delivered + cfg_.window,
             "bulk index outside window on node %d", node_);
    int slot = static_cast<int>(pkt->bulkIndex % cfg_.window);
    panic_if(dlg.slots[slot] != nullptr,
             "bulk window slot collision on node %d", node_);
    dlg.lastProgress = now;
    probes_->reorder(*pkt, now);
    dlg.slots[slot] = pkt;
    ++dlg.buffered;
    drainDialog(d, now);
}

void
NifdyNic::drainDialog(int d, Cycle now)
{
    InDialog &dlg = in_[d];
    if (!dlg.active)
        return;
    for (;;) {
        int slot = static_cast<int>(dlg.delivered % cfg_.window);
        Packet *pkt = dlg.slots[slot];
        if (!pkt)
            break;
        panic_if(pkt->bulkIndex != dlg.delivered,
                 "bulk slot holds wrong index on node %d", node_);
        if (!pkt->ctrlOnly && arrivalsFull())
            break; // processor-paced: wait for a poll
        dlg.slots[slot] = nullptr;
        --dlg.buffered;
        ++dlg.delivered;
        if (pkt->bulkExit)
            dlg.exitDelivered = true;
        if (pkt->ctrlOnly) {
            probes_->consume(*pkt, node_, "bulk control absorbed");
            pool_.release(pkt);
        } else {
            if (probes_->tracer())
                dlg.traceAckPending.push_back(pkt->rootId());
            pushArrival(pkt, now);
        }
        noteActivity();
    }
    maybeAckDialog(d, now);
}

void
NifdyNic::maybeAckDialog(int d, Cycle now)
{
    InDialog &dlg = in_[d];
    if (!dlg.active)
        return;
    bool due = dlg.delivered - dlg.ackedAt >=
               static_cast<std::int64_t>(cfg_.effAckEvery());
    bool final = dlg.exitDelivered && dlg.buffered == 0 &&
                 dlg.delivered > dlg.ackedAt;
    if (!due && !final)
        return;

    cumulativeAck(d, now);
    dlg.ackedAt = dlg.delivered;
    for (std::uint64_t rootId : dlg.traceAckPending)
        probes_->markId(ev::ackIssue, rootId, node_, now);
    dlg.traceAckPending.clear();

    if (dlg.exitDelivered && dlg.buffered == 0) {
        // Dialog complete; free the slot for another sender. The
        // tombstone lets late duplicates still be final-acked.
        if (static_cast<std::size_t>(dlg.src) >= tombstones_.size())
            // nifdy:alloc-ok(grows to the talked-to-peers high-water once)
            tombstones_.resize(static_cast<std::size_t>(dlg.src) + 1, 0);
        tombstones_[static_cast<std::size_t>(dlg.src)] = dlg.delivered;
        dlg.reset();
    }
}

void
NifdyNic::applyAck(const Packet &ack, Cycle now)
{
    onAckProcessed(ack, now);
    admissionChanged();

    if (!ack.isBulkAck()) {
        // A dialog-reject answers a bulk packet, not the outstanding
        // scalar: it must not clear the OPT entry.
        if (!ack.isDialogReject())
            clearOpt(ack.src);
        if (ack.ackGrantsBulk) {
            if (out_.requested && !out_.active &&
                out_.peer == ack.src) {
                out_.active = true;
                out_.requested = false;
                out_.dialog = ack.ackDialog;
                out_.window = ack.ackWindow;
                out_.sentTotal = 0;
                out_.ackedTotal = 0;
                out_.exitSent = false;
                out_.lastProgress = now;
                // If nothing is queued for the peer any more, the
                // dialog must be explicitly closed again.
                bool pending = false;
                for (const Packet *p : sendPool_)
                    if (p->dst == out_.peer)
                        pending = true;
                out_.closePending = !pending;
            }
        } else if (ack.ackRejectsBulk) {
            if (ack.isDialogReject()) {
                if (out_.active && out_.peer == ack.src &&
                    ack.ackDialog == out_.dialog)
                    teardownOutDialog(now, "receiver lost the dialog");
            } else if (out_.requested && !out_.active &&
                       out_.peer == ack.src) {
                out_.requested = false;
                out_.peer = invalidNode;
            }
        }
        return;
    }

    // Bulk (windowed, cumulative) ack. The monotone delivered
    // count makes reordered or repeated acks harmless.
    if (!out_.active || out_.dialog != ack.ackDialog ||
        out_.peer != ack.src)
        return; // stale (possible only with retransmissions)
    if (ack.ackTotal <= out_.ackedTotal)
        return;
    panic_if(ack.ackTotal > out_.sentTotal,
             "bulk ack beyond outstanding on node %d", node_);
    out_.ackedTotal = ack.ackTotal;
    out_.lastProgress = now;
    if (out_.exitSent && out_.ackedTotal == out_.sentTotal)
        out_ = OutDialog();
}

void
NifdyNic::onProcessorAccept(Packet *pkt, Cycle now)
{
    if (pkt->type == PacketType::scalar && cfg_.ackOnAccept)
        issueScalarAck(pkt, now);
    // A FIFO slot just freed up: in-order bulk packets waiting in
    // reorder buffers may now advance.
    for (int d = 0; d < static_cast<int>(in_.size()); ++d)
        if (in_[d].active && in_[d].buffered > 0)
            drainDialog(d, now);
}

void
NifdyNic::onCrash(Cycle now)
{
    // Fail-stop: every piece of protocol state dies with the node.
    // Queued packets are released as crash drops; peers recover via
    // their own retry caps, reclaim timeouts, and the epoch gate.
    for (Packet *p : sendPool_)
        crashDiscard(p, now, "node crashed: pooled send discarded");
    sendPool_.clear();
    for (Packet *ack : ackQueue_)
        crashDiscard(ack, now, "node crashed: queued ack discarded");
    ackQueue_.clear();
    opt_.clear();
    optSince_.clear();
    out_ = OutDialog();
    admissionChanged();
    for (InDialog &dlg : in_) {
        for (Packet *&slot : dlg.slots)
            if (slot)
                crashDiscard(slot, now,
                             "node crashed: window slot discarded");
        dlg.reset();
    }
    std::fill(tombstones_.begin(), tombstones_.end(), 0);
    peers_.clear();
    deadPeers_.clear();
}

void
NifdyNic::onDataInjected(Packet *pkt, Cycle now)
{
    (void)pkt;
    (void)now;
}

void
NifdyNic::onAckProcessed(const Packet &ack, Cycle now)
{
    (void)ack;
    (void)now;
}

bool
NifdyNic::isDuplicate(Packet &pkt, Cycle now)
{
    (void)pkt;
    (void)now;
    return false;
}

void
NifdyNic::classifyStalls(Cycle now)
{
    for (std::size_t i = 0; i < sendPool_.size(); ++i) {
        const Packet &pkt = *sendPool_[i];
        // An admissible packet waits only on injection bandwidth
        // (credits / class RR).
        std::optional<StallCause> block = admissionBlock(pkt, i);
        probes_->stall(pkt, block ? *block : injectCause(pkt), now);
    }
}

StallCause
NifdyNic::injectCause(const Packet &pkt) const
{
    return injectBusyWithColl(pkt.netClass) ? StallCause::collDefer
                                            : StallCause::injectStall;
}

bool
NifdyNic::bulkDialogMatches(const Packet &pkt) const
{
    int d = pkt.dialog;
    if (d < 0 || d >= static_cast<int>(in_.size()) || !in_[d].active)
        return false;
    return in_[d].src == pkt.src;
}

bool
NifdyNic::bulkPacketAcceptable(const Packet &pkt) const
{
    return bulkDialogMatches(pkt) &&
           bulkIndexFresh(pkt.dialog, pkt.bulkIndex);
}

bool
NifdyNic::bulkIndexFresh(int d, std::int64_t index) const
{
    if (d < 0 || d >= static_cast<int>(in_.size()) || !in_[d].active)
        return false;
    const InDialog &dlg = in_[d];
    if (index < dlg.delivered || index >= dlg.delivered + cfg_.window)
        return false;
    // A second copy of a buffered index must be treated as a dup.
    return dlg.slots[index % cfg_.window] == nullptr;
}

void
NifdyNic::cumulativeAck(int d, Cycle now)
{
    const InDialog &dlg = in_[d];
    Packet *ack = newAck(dlg.src, dlg.cls, knownEpoch(dlg.src), now);
    ack->ackDialog = static_cast<std::int16_t>(d);
    ack->ackSeq = bulkSeq(dlg.delivered - 1, cfg_.window);
    ack->ackTotal = dlg.delivered;
    queueAck(ack);
}

std::int64_t
NifdyNic::dialogTombstone(NodeId src) const
{
    return static_cast<std::size_t>(src) < tombstones_.size()
               ? tombstones_[static_cast<std::size_t>(src)]
               : 0;
}

} // namespace nifdy
