/**
 * @file
 * CollEngine implementation. Protocol walkthrough in coll.hh and
 * DESIGN.md section 13; the short form:
 *
 *  - All three ops share one reduce shape. Every participant enters
 *    with a value; a node whose awaited (static) children have all
 *    contributed or been pruned combines and sends one contribution
 *    to its parent; the root releases the result back down the edges
 *    contributions arrived on.
 *  - Liveness is a two-sided silence budget. Downward: an awaited
 *    child silent past coll.probeTimeout is probed, and after
 *    coll.maxProbes unanswered probes its subtree is pruned (the
 *    collective completes degraded among survivors). Upward: a
 *    parent silent past coll.maxRetries backed-off contribution
 *    rounds is presumed dead and the child re-parents to the next
 *    static ancestor, self-promoting to acting root above node 0.
 *    Both budgets are finite and the re-parent chain is bounded by
 *    the tree depth, so no collective can wait forever.
 *  - Completed sequences leave tombstones that answer late
 *    contributions with the recorded release, and answer late probes
 *    with the recorded up-contribution (a live ancestor this node
 *    abandoned still needs it to finish its own copy of the tree).
 */

#include "coll/coll.hh"

#include <algorithm>
#include <string>

#include "sim/log.hh"
#include "sim/probes.hh"

namespace nifdy
{

namespace
{

constexpr int numSlots = 16;
constexpr int numTombs = 64;
/** On-wire size of a collective control packet: seq + kind/op +
 * round + count + value, header included (4 flits). */
constexpr int collPacketBytes = 16;

} // namespace

const char *
collOpName(CollOp op)
{
    switch (op) {
      case CollOp::barrier:
        return "barrier";
      case CollOp::bcast:
        return "bcast";
      case CollOp::reduce:
        return "reduce";
    }
    return "?";
}

void
CollConfig::validate() const
{
    fatal_if(arity < 1, "coll.arity must be >= 1 (got %d)", arity);
    fatal_if(timeout < 1, "coll.timeout must be >= 1");
    fatal_if(backoffFactor < 1.0,
             "coll.backoffFactor must be >= 1 (got %f)", backoffFactor);
    fatal_if(jitterFrac < 0.0 || jitterFrac >= 1.0,
             "coll.jitterFrac must be in [0, 1) (got %f)", jitterFrac);
    fatal_if(maxRetries < 1, "coll.maxRetries must be >= 1");
    fatal_if(probeTimeout < 1, "coll.probeTimeout must be >= 1");
    fatal_if(maxProbes < 1, "coll.maxProbes must be >= 1");
}

Cycle
CollConfig::worstCaseRecovery(int numNodes) const
{
    Cycle depth = static_cast<Cycle>(collTreeDepth(numNodes, arity));
    Cycle pruneBudget =
        static_cast<Cycle>(maxProbes + 1) * probeTimeout;
    Cycle reparentBudget =
        static_cast<Cycle>(maxRetries + 1) * effMaxTimeout();
    // One crash can trigger a prune and a re-parent at every level in
    // both directions; 2x covers jitter and wire time.
    return 2 * (depth + 1) * (pruneBudget + reparentBudget) +
           8 * timeout;
}

NodeId
collParent(NodeId n, int arity)
{
    if (n <= 0)
        return invalidNode;
    return (n - 1) / arity;
}

NodeId
collFirstChild(NodeId n, int arity)
{
    return n * arity + 1;
}

int
collNumChildren(NodeId n, int arity, int numNodes)
{
    std::int64_t first = static_cast<std::int64_t>(n) * arity + 1;
    if (first >= numNodes)
        return 0;
    std::int64_t last =
        std::min<std::int64_t>(first + arity - 1, numNodes - 1);
    return static_cast<int>(last - first + 1);
}

int
collTreeDepth(int numNodes, int arity)
{
    int depth = 1;
    NodeId n = static_cast<NodeId>(numNodes - 1);
    while (n > 0) {
        n = collParent(n, arity);
        ++depth;
    }
    return depth;
}

//===------------------------------------------------------------===//
// CollEngine
//===------------------------------------------------------------===//

void
CollEngine::OpenColl::reset()
{
    active = false;
    seq = -1;
    op = CollOp::barrier;
    entered = false;
    localValue = 0;
    degraded = false;
    degradeTraced = false;
    sentUp = false;
    upValue = 0;
    upCount = 0;
    parent = invalidNode;
    actingRoot = false;
    retries = 0;
    attempt = 0;
    retxAt = neverCycle;
    curTimeout = 0;
    children.clear(); // capacity persists (InDialog::reset style)
}

CollEngine::CollEngine(NodeId node, int numNodes,
                       const CollConfig &cfg, PacketPool &pool)
    : node_(node), numNodes_(numNodes), cfg_(cfg), pool_(pool),
      probes_(&noProbes),
      rng_(cfg.seed, 0xC0111EC7u + static_cast<std::uint64_t>(node))
{
    panic_if(numNodes < 1, "CollEngine: numNodes must be >= 1");
    panic_if(node < 0 || node >= numNodes,
             "CollEngine: node %d out of range", node);
    cfg_.validate();
    slots_.resize(numSlots);
    for (OpenColl &slot : slots_)
        slot.children.reserve(static_cast<std::size_t>(cfg_.arity) + 8);
    tombs_.resize(numTombs);
    peerEpoch_.assign(static_cast<std::size_t>(numNodes), 0);
    for (auto &box : outbox_)
        box.reserve(static_cast<std::size_t>(numNodes) + 16);
}

//===------------------------------------------------------------===//
// Processor side
//===------------------------------------------------------------===//

void
CollEngine::enter(CollOp op, std::int64_t value, Cycle now)
{
    ++entered_;
    probes_->coll(ev::collEnter, node_, now);
    if (excused_) {
        // Free-runner: the collective resolves immediately with a
        // degraded zero result and no wire traffic.
        lastResult_ = 0;
        lastDegraded_ = true;
        ++localCompleted_;
        ++degraded_;
        probes_->coll(ev::collExit, node_, now);
        return;
    }
    panic_if(localSeq_ >= 0,
             "CollEngine::enter at node %d with collective %d still "
             "pending",
             node_, localSeq_);
    std::int32_t seq = nextLocalSeq_++;
    localSeq_ = seq;
    if (const Tombstone *t = findTomb(seq)) {
        // The tree completed this sequence around us while we were
        // presumed dead (our subtree was pruned): adopt the recorded
        // result, degraded.
        resolveLocal(t->result, true, now);
        return;
    }
    OpenColl *slot = findSlot(seq);
    if (!slot)
        slot = openSlot(seq, op, now);
    else
        panic_if(slot->op != op,
                 "node %d entered %s for collective %d, wire traffic "
                 "says %s",
                 node_, collOpName(op), seq, collOpName(slot->op));
    slot->entered = true;
    slot->localValue = value;
    maybeComplete(*slot, now);
}

void
CollEngine::setExcused(Cycle now)
{
    if (excused_)
        return;
    excused_ = true;
    if (localSeq_ >= 0) {
        ++localAbandoned_;
        localSeq_ = -1;
        lastDegraded_ = true;
    }
    // Open slots no longer wait for a local contribution.
    for (OpenColl &slot : slots_)
        if (slot.active)
            maybeComplete(slot, now);
}

//===------------------------------------------------------------===//
// NIC side
//===------------------------------------------------------------===//

NIFDY_HOT void
CollEngine::pump(Cycle now)
{
    for (OpenColl &slot : slots_) {
        if (!slot.active)
            continue;
        if (slot.sentUp) {
            if (now < slot.retxAt)
                continue;
            if (slot.retries >= cfg_.maxRetries) {
                // Parent presumed dead: re-parent up the static
                // ancestor chain; above node 0, self-promote.
                markDegraded(slot, now, "parent presumed dead");
                if (slot.parent == 0) {
                    slot.actingRoot = true;
                    releaseSlot(slot, rootResult(slot), slot.upCount,
                                slot.degraded, now);
                } else {
                    slot.parent = collParent(slot.parent, cfg_.arity);
                    slot.retries = 0;
                    slot.curTimeout = cfg_.timeout;
                    sendContribution(slot, now);
                }
            } else {
                sendContribution(slot, now);
            }
            continue;
        }
        // Waiting on children: probe the silent ones, prune the dead.
        for (std::size_t ci = 0; ci < slot.children.size(); ++ci) {
            Child &c = slot.children[ci];
            if (!c.expected || c.got || c.pruned || now < c.probeAt)
                continue;
            if (c.probes >= cfg_.maxProbes) {
                c.pruned = true;
                ++pruned_;
                probes_->coll(ev::collPeerPrune, node_, now);
                markDegraded(slot, now, "child pruned");
                maybeComplete(slot, now);
                if (!slot.active || slot.sentUp)
                    break;
            } else {
                queuePacket(makePacket(c.node, CollKind::probe,
                                       slot.seq, slot.op, now));
                ++c.probes;
                ++probesSent_;
                c.probeAt = now + jittered(cfg_.probeTimeout);
                probes_->coll(ev::collProbeSend, node_, now);
            }
        }
    }
}

NIFDY_HOT Packet *
CollEngine::nextToInject(NetClass cls, Cycle now)
{
    (void)now;
    Ring<Packet *> &box = outbox_[static_cast<int>(cls)];
    if (box.empty())
        return nullptr;
    Packet *pkt = box.front();
    box.pop_front();
    ++packetsSent_;
    return pkt;
}

void
CollEngine::deliver(Packet *pkt, Cycle now)
{
    panic_if(pkt == nullptr || pkt->type != PacketType::coll,
             "CollEngine::deliver: not a collective packet");
    if (pkt->corrupted) {
        // CRC fails at the NIC; the sender's retransmission repairs.
        probes_->drop(*pkt, node_, now, "coll corrupt");
        pool_.release(pkt);
        return;
    }
    if (!epochAdmit(*pkt)) {
        ++epochRejects_;
        probes_->coll(ev::collEpochReject, node_, now);
        probes_->drop(*pkt, node_, now, "coll stale epoch");
        pool_.release(pkt);
        return;
    }
    switch (static_cast<CollKind>(pkt->collKind)) {
      case CollKind::contrib:
        handleContrib(*pkt, now);
        break;
      case CollKind::accept:
        handleAccept(*pkt, now);
        break;
      case CollKind::release:
        handleRelease(*pkt, now);
        break;
      case CollKind::probe:
        handleProbe(*pkt, now);
        break;
      case CollKind::status:
        handleStatus(*pkt, now);
        break;
    }
    probes_->consume(*pkt, node_, "coll");
    pool_.release(pkt);
}

void
CollEngine::onCrash(Cycle now)
{
    for (auto &box : outbox_) {
        while (!box.empty()) {
            Packet *pkt = box.front();
            box.pop_front();
            probes_->drop(*pkt, node_, now, "coll crash wipe");
            pool_.release(pkt);
        }
    }
    for (OpenColl &slot : slots_)
        if (slot.active)
            slot.reset();
    if (localSeq_ >= 0) {
        // Normally setExcused() already abandoned it (the harness
        // excuses before it crashes the NIC); belt and braces.
        ++localAbandoned_;
        localSeq_ = -1;
        lastDegraded_ = true;
    }
}

void
CollEngine::onRestart(Cycle now)
{
    // Nothing to rebuild: excused_ and peerEpoch_ survived the crash
    // (peers' incarnations are facts, not our soft state), and open
    // sequences are re-learned from the contributions and probes
    // peers keep sending.
    (void)now;
}

bool
CollEngine::idle() const
{
    for (const auto &box : outbox_)
        if (!box.empty())
            return false;
    return openCollectives() == 0;
}

int
CollEngine::openCollectives() const
{
    int n = 0;
    for (const OpenColl &slot : slots_)
        if (slot.active)
            ++n;
    return n;
}

//===------------------------------------------------------------===//
// Slot / tombstone / child bookkeeping
//===------------------------------------------------------------===//

CollEngine::OpenColl *
CollEngine::findSlot(std::int32_t seq)
{
    for (OpenColl &slot : slots_)
        if (slot.active && slot.seq == seq)
            return &slot;
    return nullptr;
}

CollEngine::OpenColl *
CollEngine::openSlot(std::int32_t seq, CollOp op, Cycle now)
{
    for (OpenColl &slot : slots_) {
        if (slot.active)
            continue;
        slot.active = true;
        slot.seq = seq;
        slot.op = op;
        slot.parent = collParent(node_, cfg_.arity);
        slot.curTimeout = cfg_.timeout;
        int kids = collNumChildren(node_, cfg_.arity, numNodes_);
        NodeId first = collFirstChild(node_, cfg_.arity);
        for (int i = 0; i < kids; ++i) {
            Child c;
            c.node = first + i;
            c.expected = true;
            c.lastHeard = now;
            c.probeAt = now + jittered(cfg_.probeTimeout);
            slot.children.push_back(c); // nifdy:alloc-ok(capacity reserved to arity+8 at construction)
        }
        return &slot;
    }
    // Pool full: the tree ran more than numSlots sequences past this
    // node. That happens when a lagging node (e.g. head-of-line
    // blocked behind traffic to a dead peer until reclaim fires) is
    // pruned by its parent sequence after sequence while children
    // keep contributing to it -- slots opened by remote traffic only
    // free on releases that a pruned subtree never receives. Evict
    // the stalest remote-driven slot: its contributors are already on
    // their own recovery clocks (retransmit, re-parent, grandparent
    // release), so dropping the combine state costs at worst a
    // degraded completion, while holding it would wedge the machine
    // on a pool that cannot grow.
    OpenColl *victim = nullptr;
    for (OpenColl &slot : slots_) {
        if (slot.entered || slot.seq == localSeq_)
            continue;
        if (!victim || slot.seq < victim->seq)
            victim = &slot;
    }
    // Local entry is serialized (enter() panics on a pending local
    // collective), so at most one slot is ever local-driven and a
    // victim always exists.
    panic_if(!victim,
             "node %d: all %d collective slots busy at sequence %d "
             "and none is remote-driven",
             node_, numSlots, seq);
    ++evictions_;
    victim->reset();
    return openSlot(seq, op, now);
}

const CollEngine::Tombstone *
CollEngine::findTomb(std::int32_t seq) const
{
    if (seq < 0)
        return nullptr;
    for (const Tombstone &t : tombs_)
        if (t.seq == seq)
            return &t;
    return nullptr;
}

CollEngine::Child *
CollEngine::findChild(OpenColl &slot, NodeId n)
{
    for (Child &c : slot.children)
        if (c.node == n)
            return &c;
    return nullptr;
}

CollEngine::Child *
CollEngine::recordContributor(OpenColl &slot, NodeId n, Cycle now)
{
    if (Child *c = findChild(slot, n))
        return c;
    // Not a static child: an orphan that re-parented to us after its
    // own parent went silent. Record it so the release reaches it.
    Child c;
    c.node = n;
    c.expected = false;
    c.lastHeard = now;
    slot.children.push_back(c); // nifdy:alloc-ok(orphan adoption is a recovery path, not steady state)
    return &slot.children.back();
}

bool
CollEngine::epochAdmit(const Packet &pkt)
{
    std::uint32_t &known =
        peerEpoch_[static_cast<std::size_t>(pkt.src)];
    if (pkt.srcEpoch < known)
        return false;
    known = pkt.srcEpoch; // adopt newer incarnations on sight
    return true;
}

//===------------------------------------------------------------===//
// Completion
//===------------------------------------------------------------===//

std::int64_t
CollEngine::rootResult(const OpenColl &slot) const
{
    switch (slot.op) {
      case CollOp::bcast:
        return slot.entered ? slot.localValue : 0;
      case CollOp::reduce:
        return slot.upValue;
      case CollOp::barrier:
        return slot.upCount;
    }
    return 0;
}

void
CollEngine::maybeComplete(OpenColl &slot, Cycle now)
{
    if (!slot.active || slot.sentUp)
        return;
    if (!slot.entered && !excused_)
        return;
    for (const Child &c : slot.children)
        if (c.expected && !c.got && !c.pruned)
            return;
    if (!slot.entered)
        markDegraded(slot, now, "excused node, no local contribution");
    combine(slot);
    slot.sentUp = true;
    if (node_ == 0) {
        releaseSlot(slot, rootResult(slot), slot.upCount,
                    slot.degraded, now);
    } else {
        slot.retries = 0;
        slot.curTimeout = cfg_.timeout;
        sendContribution(slot, now);
    }
}

void
CollEngine::combine(OpenColl &slot)
{
    slot.upValue = 0;
    slot.upCount = 0;
    if (slot.entered) {
        slot.upCount = 1;
        if (slot.op == CollOp::reduce)
            slot.upValue = slot.localValue;
    }
    for (const Child &c : slot.children) {
        if (!c.got)
            continue;
        slot.upValue += c.value;
        slot.upCount += c.count;
        if (c.degraded)
            slot.degraded = true; // inherited; the child traced it
    }
}

void
CollEngine::sendContribution(OpenColl &slot, Cycle now)
{
    Packet *pkt = makePacket(slot.parent, CollKind::contrib, slot.seq,
                             slot.op, now);
    pkt->collValue = slot.upValue;
    pkt->collCount = slot.upCount;
    pkt->collDegraded = slot.degraded;
    pkt->collRound = slot.attempt;
    pkt->attempt = slot.attempt;
    queuePacket(pkt);
    if (slot.attempt == 0) {
        probes_->coll(ev::collContribSend, node_, now);
    } else {
        probes_->coll(ev::collContribRetx, node_, now);
        ++retx_;
    }
    ++slot.attempt;
    ++slot.retries;
    slot.retxAt = now + jittered(slot.curTimeout);
    Cycle next = static_cast<Cycle>(static_cast<double>(slot.curTimeout) *
                                    cfg_.backoffFactor);
    slot.curTimeout =
        std::min(cfg_.effMaxTimeout(), std::max(slot.curTimeout + 1, next));
}

void
CollEngine::releaseSlot(OpenColl &slot, std::int64_t result,
                        std::int32_t count, bool degraded, Cycle now)
{
    degraded = degraded || slot.degraded;
    for (const Child &c : slot.children)
        if (c.got)
            sendReleaseTo(c.node, slot.seq, slot.op, result, count,
                          degraded, now);
    Tombstone &t = tombs_[tombHead_];
    tombHead_ = (tombHead_ + 1) % tombs_.size();
    t.seq = slot.seq;
    t.op = slot.op;
    t.result = result;
    t.count = count;
    t.degraded = degraded;
    t.upValue = slot.upValue;
    t.upCount = slot.upCount;
    if (localSeq_ == slot.seq)
        resolveLocal(result, degraded, now);
    slot.reset();
}

void
CollEngine::sendReleaseTo(NodeId dst, std::int32_t seq, CollOp op,
                          std::int64_t result, std::int32_t count,
                          bool degraded, Cycle now)
{
    Packet *pkt = makePacket(dst, CollKind::release, seq, op, now);
    pkt->collValue = result;
    pkt->collCount = count;
    pkt->collDegraded = degraded;
    queuePacket(pkt);
    probes_->coll(ev::collReleaseSend, node_, now);
}

void
CollEngine::markDegraded(OpenColl &slot, Cycle now, const char *why)
{
    (void)why;
    slot.degraded = true;
    if (!slot.degradeTraced) {
        slot.degradeTraced = true;
        probes_->coll(ev::collDegrade, node_, now);
    }
}

void
CollEngine::resolveLocal(std::int64_t result, bool degraded, Cycle now)
{
    lastResult_ = result;
    lastDegraded_ = degraded;
    localSeq_ = -1;
    ++localCompleted_;
    if (degraded)
        ++degraded_;
    probes_->coll(ev::collExit, node_, now);
}

//===------------------------------------------------------------===//
// Wire handlers
//===------------------------------------------------------------===//

void
CollEngine::handleContrib(const Packet &pkt, Cycle now)
{
    if (const Tombstone *t = findTomb(pkt.collSeq)) {
        // Already released: answer with the recorded result instead
        // of reopening state.
        sendReleaseTo(pkt.src, t->seq, t->op, t->result, t->count,
                      t->degraded, now);
        ++tombReplies_;
        return;
    }
    OpenColl *slot = findSlot(pkt.collSeq);
    if (!slot)
        slot = openSlot(pkt.collSeq,
                        static_cast<CollOp>(pkt.collOp), now);
    Child *c = recordContributor(*slot, pkt.src, now);
    c->lastHeard = now;
    c->probes = 0;
    c->probeAt = now + jittered(cfg_.probeTimeout);
    c->got = true;
    c->value = pkt.collValue;
    c->count = pkt.collCount;
    c->degraded = pkt.collDegraded;
    queuePacket(makePacket(pkt.src, CollKind::accept, slot->seq,
                           slot->op, now));
    // Post-sentUp arrivals (a pruned child resurfacing, or an orphan
    // adopting us late) are recorded for the release fan-out but the
    // frozen combined value is not reopened; the pruning that let us
    // complete without them already marked the result degraded.
    if (!slot->sentUp)
        maybeComplete(*slot, now);
}

void
CollEngine::handleAccept(const Packet &pkt, Cycle now)
{
    (void)now;
    OpenColl *slot = findSlot(pkt.collSeq);
    if (!slot || !slot->sentUp || pkt.src != slot->parent)
        return;
    // Parent is alive and has our contribution; the backed-off
    // retransmission clock keeps running as a liveness check in case
    // it dies before the release.
    slot->retries = 0;
}

void
CollEngine::handleRelease(const Packet &pkt, Cycle now)
{
    if (findTomb(pkt.collSeq))
        return; // duplicate release
    OpenColl *slot = findSlot(pkt.collSeq);
    if (!slot) {
        // No open state (a restarted forwarder hearing the tail end
        // of a collective): tombstone the result so late queries are
        // answered.
        Tombstone &t = tombs_[tombHead_];
        tombHead_ = (tombHead_ + 1) % tombs_.size();
        t.seq = pkt.collSeq;
        t.op = static_cast<CollOp>(pkt.collOp);
        t.result = pkt.collValue;
        t.count = pkt.collCount;
        t.degraded = pkt.collDegraded;
        t.upValue = 0;
        t.upCount = 0;
        return;
    }
    releaseSlot(*slot, pkt.collValue, pkt.collCount, pkt.collDegraded,
                now);
}

void
CollEngine::handleProbe(const Packet &pkt, Cycle now)
{
    std::int32_t seq = pkt.collSeq;
    if (const Tombstone *t = findTomb(seq)) {
        // We completed this sequence on another path (acting root or
        // a different ancestor chain) and the prober still awaits our
        // subtree: replay the recorded combined contribution so its
        // copy of the tree can finish too.
        Packet *reply = makePacket(pkt.src, CollKind::contrib, seq,
                                   t->op, now);
        reply->collValue = t->upValue;
        reply->collCount = t->upCount;
        reply->collDegraded = true;
        queuePacket(reply);
        probes_->coll(ev::collContribSend, node_, now);
        ++tombReplies_;
        return;
    }
    OpenColl *slot = findSlot(seq);
    if (!slot) {
        if (!excused_) {
            // Alive but not there yet: the local workload has not
            // entered this sequence. Answer the liveness probe
            // without allocating combine state -- remote probes must
            // not be able to exhaust a lagging node's slot pool. The
            // slot opens when the local enter() or a child
            // contribution arrives.
            queuePacket(makePacket(pkt.src, CollKind::status, seq,
                                   static_cast<CollOp>(pkt.collOp),
                                   now));
            probes_->coll(ev::collStatusSend, node_, now);
            return;
        }
        // First we hear of this sequence: the probe doubles as the
        // announcement (this is how a restarted, excused node learns
        // it is being awaited). An excused leaf completes on the spot
        // and the contribution to the prober is already in the outbox.
        slot = openSlot(seq, static_cast<CollOp>(pkt.collOp), now);
        maybeComplete(*slot, now);
        if (!slot->active || slot->sentUp)
            return;
    }
    if (slot->sentUp && slot->parent != pkt.src) {
        // We abandoned this prober for a new parent; replay our
        // combined contribution so its subtree is not wedged waiting
        // on a child that will never transmit to it again.
        Packet *reply = makePacket(pkt.src, CollKind::contrib, seq,
                                   slot->op, now);
        reply->collValue = slot->upValue;
        reply->collCount = slot->upCount;
        reply->collDegraded = true;
        queuePacket(reply);
        probes_->coll(ev::collContribSend, node_, now);
        return;
    }
    queuePacket(makePacket(pkt.src, CollKind::status, seq, slot->op,
                           now));
    probes_->coll(ev::collStatusSend, node_, now);
}

void
CollEngine::handleStatus(const Packet &pkt, Cycle now)
{
    OpenColl *slot = findSlot(pkt.collSeq);
    if (!slot)
        return;
    Child *c = findChild(*slot, pkt.src);
    if (!c)
        return;
    c->lastHeard = now;
    c->probes = 0;
    c->probeAt = now + jittered(cfg_.probeTimeout);
}

//===------------------------------------------------------------===//
// Packet plumbing
//===------------------------------------------------------------===//

Packet *
CollEngine::makePacket(NodeId dst, CollKind kind, std::int32_t seq,
                       CollOp op, Cycle now)
{
    panic_if(dst == invalidNode || dst == node_,
             "node %d: collective packet to invalid destination %d",
             node_, dst);
    Packet *pkt = pool_.alloc();
    pkt->src = node_;
    pkt->dst = dst;
    pkt->type = PacketType::coll;
    pkt->ctrlOnly = true;
    // Contributions and statuses climb the tree on the request
    // class; accepts, releases, and probes descend on the reply
    // class, so a congested upward direction can never deadlock the
    // releases that drain it.
    pkt->netClass = (kind == CollKind::contrib ||
                     kind == CollKind::status)
                        ? NetClass::request
                        : NetClass::reply;
    pkt->sizeBytes = collPacketBytes;
    pkt->collSeq = seq;
    pkt->collKind = static_cast<std::uint8_t>(kind);
    pkt->collOp = static_cast<std::uint8_t>(op);
    pkt->createdAt = now;
    return pkt;
}

void
CollEngine::queuePacket(Packet *pkt)
{
    outbox_[static_cast<int>(pkt->netClass)].push_back(pkt); // nifdy:alloc-ok(Ring reserved to numNodes+16 at construction)
}

Cycle
CollEngine::jittered(Cycle timeout)
{
    if (cfg_.jitterFrac <= 0.0)
        return timeout;
    Cycle span = static_cast<Cycle>(static_cast<double>(timeout) *
                                    cfg_.jitterFrac);
    return timeout + (span > 0 ? rng_.nextBounded(span + 1) : 0);
}

//===------------------------------------------------------------===//
// Audit checker
//===------------------------------------------------------------===//

namespace
{

/**
 * End-of-run collective discipline: every locally entered collective
 * was resolved (completed, degraded, or abandoned by excuse -- never
 * left hanging), no engine holds an open collective slot, and every
 * outbox has drained.
 */
class CollDisciplineChecker : public InvariantChecker
{
  public:
    explicit CollDisciplineChecker(std::vector<CollEngine *> engines)
        : engines_(std::move(engines))
    {
    }

    const char *name() const override { return "coll-discipline"; }

    void
    finish() override
    {
        for (const CollEngine *eng : engines_) {
            std::string at =
                "node " + std::to_string(eng->node());
            std::uint64_t resolved =
                eng->localCompleted() + eng->localAbandoned();
            if (eng->entered() != resolved)
                fail(at + ": entered " +
                     std::to_string(eng->entered()) +
                     " collectives but resolved only " +
                     std::to_string(resolved) +
                     " (completed " +
                     std::to_string(eng->localCompleted()) +
                     " + abandoned " +
                     std::to_string(eng->localAbandoned()) +
                     "): a collective hung");
            if (eng->localPending())
                fail(at + ": run ended with a locally entered "
                          "collective still pending");
            if (eng->openCollectives() != 0)
                fail(at + ": " +
                     std::to_string(eng->openCollectives()) +
                     " collective slots leaked open at end of run");
            if (!eng->idle())
                fail(at + ": collective outbox not drained at end "
                          "of run");
        }
    }

  private:
    std::vector<CollEngine *> engines_;
};

} // namespace

std::unique_ptr<InvariantChecker>
makeCollDisciplineChecker(std::vector<CollEngine *> engines)
{
    return std::make_unique<CollDisciplineChecker>(std::move(engines));
}

} // namespace nifdy
