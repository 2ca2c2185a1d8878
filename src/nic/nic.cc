#include "nic/nic.hh"

#include <algorithm>

#include "coll/coll.hh"
#include "sim/log.hh"

namespace nifdy
{

Nic::Nic(NodeId node, const Network::NodePorts &ports,
         const NicParams &params, PacketPool &pool)
    : node_(node), params_(params), pool_(pool), ports_(ports),
      latency_("latency")
{
    panic_if(!ports_.inject || !ports_.eject, "NIC lacks attach ports");
    injectCredits_.assign(numNetClasses * params_.vcsPerClass,
                          ports_.injectDepth);
    inStreams_.resize(numNetClasses * params_.vcsPerClass);
    // Credit discipline bounds the injection channel; the ejection
    // channel's bound is stamped by Router::addOutPort.
    ports_.inject->setCapacityFlits(numNetClasses * params_.vcsPerClass *
                                    ports_.injectDepth);
    ejectWheel_.fit(ports_.eject->flightCycles());
    ports_.eject->watchArrivals(&ejectWheel_, 0);
    ejectWheel_.wakeOnMark(this);
    ports_.inject->wakeOnCredit(this);
}

NIFDY_HOT Packet *
Nic::peekReceive()
{
    return arrivals_.empty() ? nullptr : arrivals_.front();
}

NIFDY_HOT Packet *
Nic::pollReceive(Cycle now)
{
    if (arrivals_.empty())
        return nullptr;
    Packet *pkt = arrivals_.front();
    arrivals_.pop_front();
    probes_->accept(*pkt, now);
    onProcessorAccept(pkt, now);
    wakeNow();
    return pkt;
}

bool
Nic::transitIdle() const
{
    return pumpsIdle() && (coll_ == nullptr || coll_->idle());
}

bool
Nic::injectBusyWithColl(NetClass cls) const
{
    const OutStream &os = outStream_[static_cast<int>(cls)];
    return os.pkt && os.pkt->type == PacketType::coll;
}

bool
Nic::pumpsIdle() const
{
    for (const OutStream &os : outStream_)
        if (os.pkt)
            return false;
    for (const InStream &is : inStreams_)
        if (!is.buf.empty() || is.assembling)
            return false;
    return true;
}

NIFDY_HOT void
Nic::step(Cycle now)
{
    if (probes_->anatomy())
        classifyStalls(now);
    if (coll_ && !crashed_)
        coll_->pump(now);
    // Each pump runs only when it may have something to move. Returned
    // injection credits can wait in the channel: only pumpInject()
    // reads them, after absorbing every visible one.
    if (ejectWheel_.take(now) || heldFlits_ > 0)
        pumpEject(now);
    if (outStream_[0].pkt || outStream_[1].pkt || coll_ ||
        injectQueued(NetClass::request) || injectQueued(NetClass::reply))
        pumpInject(now);
    sleepUntil(nextWork(now));
}

NIFDY_HOT Cycle
Nic::nextWork(Cycle now) const
{
    // A held head retries its arrivals slot, the collective engine
    // keeps its own timers, and the two observers classify every
    // cycle.
    if (heldFlits_ > 0 || coll_ || probes_->anatomy() ||
        probes_->congestion())
        return now + 1;
    Cycle at = ports_.eject->nextArrival();
    const Channel *ch = ports_.inject;
    for (int cls = 0; cls < numNetClasses; ++cls) {
        const NetClass nc = static_cast<NetClass>(cls);
        if (!outStream_[cls].pkt && !injectQueued(nc))
            continue;
        // A pump that ran this step absorbed every visible credit, so
        // a starved class waits for the next one (a later one wakes
        // the NIC through Channel::pushCredit()).
        Cycle ready = ch->freeAt(nc);
        if (injectCredits_[cls * params_.vcsPerClass] <= 0)
            ready = std::max(ready, ch->nextCredit());
        at = std::min(at, ready);
    }
    return std::max(at, now + 1);
}

NIFDY_HOT bool
Nic::injectQueued(NetClass cls) const
{
    (void)cls;
    return true;
}

void
Nic::classifyStalls(Cycle now)
{
    (void)now;
}

void
Nic::onProcessorAccept(Packet *pkt, Cycle now)
{
    (void)pkt;
    (void)now;
}

void
Nic::onCrash(Cycle now)
{
    (void)now;
}

void
Nic::crashDiscard(Packet *pkt, Cycle now, const char *why)
{
    probes_->drop(*pkt, node_, now, why);
    pool_.release(pkt);
}

void
Nic::crash(Cycle now)
{
    panic_if(crashed_, "node %d crashed while already down", node_);
    crashed_ = true;
    probes_->nodeCrash(node_, now);
    // Delivered-but-unconsumed arrivals die with the node.
    while (!arrivals_.empty()) {
        Packet *pkt = arrivals_.front();
        arrivals_.pop_front();
        crashDiscard(pkt, now, "node crashed: arrival discarded");
    }
    // Packets mid-reassembly were accepted by the dead incarnation:
    // their remaining flits keep draining (credit discipline), but
    // the reassembled body is black-holed, and the FIFO slots they
    // reserved are forfeit.
    for (InStream &is : inStreams_) {
        if (is.assembling)
            is.blackholed = true;
        is.reserved = false;
    }
    reservedArrivals_ = 0;
    onCrash(now);
    if (coll_)
        coll_->onCrash(now);
    wakeNow();
}

void
Nic::restart(Cycle now)
{
    panic_if(!crashed_, "node %d restarted while alive", node_);
    crashed_ = false;
    ++epoch_;
    probes_->nodeRestart(node_, epoch_, now);
    if (coll_)
        coll_->onRestart(now);
    wakeNow();
}

NIFDY_HOT bool
Nic::acceptArrival(const Packet &pkt, InStream &is)
{
    if (crashed_) {
        is.blackholed = true;
        return true;
    }
    // Collective packets bypass the arrivals FIFO entirely (they are
    // consumed NIC-side by the engine), so they reserve no slot and
    // exert no processor-facing backpressure.
    if (pkt.type == PacketType::coll || !needsArrivalSlot(pkt))
        return true;
    if (arrivalsFull())
        return false;
    is.reserved = true;
    ++reservedArrivals_;
    return true;
}

NIFDY_HOT void
Nic::deliverArrival(Packet *pkt, InStream &is, Cycle now)
{
    // The slot goes back before the protocol sees the packet, so one
    // it drops (stale epoch, duplicate, CRC, receiver drop) frees it
    // just as one it queues. Nothing onPacketDelivered() does before
    // pushArrival() reads the reservation count: drainDialog(), the
    // only other reader, runs for bulk packets, which hold no slot,
    // and on polls.
    if (is.reserved) {
        is.reserved = false;
        --reservedArrivals_;
    }
    if (is.blackholed) {
        is.blackholed = false;
        crashDiscard(pkt, now, "node crashed: delivery black-holed");
        return;
    }
    if (pkt->type == PacketType::coll) {
        panic_if(!coll_, "node %d received a collective packet with "
                         "no engine attached",
                 node_);
        probes_->deliver(*pkt, node_, now);
        coll_->deliver(pkt, now);
        return;
    }
    onPacketDelivered(pkt, now);
}

NIFDY_HOT void
Nic::pushArrival(Packet *pkt, Cycle now)
{
    panic_if(static_cast<int>(arrivals_.size()) >= params_.arrivalFifo,
             "arrivals FIFO overflow on node %d", node_);
    arrivals_.push_back(pkt); // nifdy:alloc-ok(Ring grows to arrivalFifo then reuses)
    probes_->deliver(*pkt, node_, now);
    ++packetsDelivered_;
    wordsDelivered_ += pkt->payloadWords;
    latency_.sample(now - pkt->createdAt);
}

NIFDY_HOT void
Nic::pumpInject(Cycle now)
{
    ++pumpRuns_;
    Channel *ch = ports_.inject;
    while (ch->hasCredit(now))
        ++injectCredits_[ch->popCredit(now)];

    // Class round robin: class now % 2 goes first, so the order
    // turns every cycle whether or not this pump runs.
    const int first = static_cast<int>(now % numNetClasses);
    for (int k = 0; k < numNetClasses; ++k) {
        int cls = (first + k) % numNetClasses;
        NetClass nc = static_cast<NetClass>(cls);
        if (!ch->canPush(nc, now)) {
            // Only a mid-wormhole packet is demonstrably blocked on
            // the link; an empty stream may simply have nothing to
            // send this cycle.
            if (outStream_[cls].pkt)
                probes_->linkStall(ch, now);
            continue;
        }
        int vc = cls * params_.vcsPerClass;
        if (injectCredits_[vc] <= 0) {
            if (outStream_[cls].pkt)
                probes_->linkStall(ch, now);
            continue;
        }
        OutStream &os = outStream_[cls];
        if (!os.pkt) {
            if (!crashed_) {
                // Collective traffic has strict injection priority:
                // it is tiny, latency-critical, and never queued
                // behind a long data backlog.
                if (coll_)
                    os.pkt = coll_->nextToInject(nc, now);
                if (!os.pkt)
                    os.pkt = nextToInject(nc, now);
            }
            if (!os.pkt)
                continue;
            panic_if(os.pkt->netClass != nc,
                     "nextToInject returned wrong class");
            os.totalFlits = os.pkt->numFlits(params_.flitBytes);
            os.flitsLeft = os.totalFlits;
        }
        Flit f;
        f.pkt = os.pkt;
        f.head = os.flitsLeft == os.totalFlits;
        f.tail = os.flitsLeft == 1;
        f.vc = static_cast<std::int8_t>(vc);
        if (f.head) {
            os.pkt->injectedAt = now;
            os.pkt->srcEpoch = epoch_;
            probes_->inject(*os.pkt, node_, now);
            if (os.pkt->type != PacketType::ack &&
                !os.pkt->ctrlOnly) {
                ++packetsSent_;
                if (injectBoard_)
                    ++(*injectBoard_)[os.pkt->dst];
            }
        }
        ch->push(f, now);
        probes_->linkFlit(ch, f, now);
        --injectCredits_[vc];
        --os.flitsLeft;
        noteActivity();
        if (f.tail)
            os = OutStream();
    }
}

NIFDY_HOT void
Nic::pumpEject(Cycle now)
{
    ++pumpRuns_;
    Channel *ch = ports_.eject;
    while (ch->hasFlit(now)) {
        Flit f = ch->pop(now);
        InStream &is = inStreams_.at(f.vc);
        is.buf.push_back(f); // nifdy:alloc-ok(Ring grows to ejectDepth then reuses)
        ++heldFlits_;
        panic_if(static_cast<int>(is.buf.size()) > params_.ejectDepth,
                 "NIC eject buffer overflow on node %d", node_);
    }

    for (std::size_t vc = 0; vc < inStreams_.size(); ++vc) {
        InStream &is = inStreams_[vc];
        while (!is.buf.empty()) {
            Flit f = is.buf.front();
            if (f.head) {
                panic_if(is.assembling,
                         "head flit while assembling on node %d",
                         node_);
                if (!acceptArrival(*f.pkt, is))
                    break; // backpressure: withhold credits
                is.assembling = f.pkt;
                is.flitsSeen = 0;
            } else {
                panic_if(!is.assembling,
                         "body flit with no packet on node %d", node_);
            }
            is.buf.pop_front();
            --heldFlits_;
            ++is.flitsSeen;
            ch->pushCredit(static_cast<int>(vc), now);
            noteActivity();
            if (f.tail) {
                Packet *pkt = is.assembling;
                panic_if(is.flitsSeen !=
                             pkt->numFlits(params_.flitBytes),
                         "flit count mismatch on node %d", node_);
                is.assembling = nullptr;
                deliverArrival(pkt, is, now);
            }
        }
    }
}

} // namespace nifdy
