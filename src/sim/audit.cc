#include "sim/audit.hh"

#include <cstdlib>
#include <cstring>
#include <limits>
#include <set>
#include <sstream>
#include <unordered_map>

#include "net/packet.hh"
#include "net/router.hh"
#include "nic/retransmit.hh"
#include "proc/processor.hh"
#include "sim/log.hh"

namespace nifdy
{

//===------------------------------------------------------------===//
// InvariantChecker
//===------------------------------------------------------------===//

void
InvariantChecker::endCycle(Cycle now)
{
    (void)now;
}

void
InvariantChecker::finish()
{
}

void
InvariantChecker::onAlloc(const Packet &pkt)
{
    (void)pkt;
}

void
InvariantChecker::onSend(const Packet &pkt, NodeId node)
{
    (void)pkt;
    (void)node;
}

void
InvariantChecker::onInject(const Packet &pkt, NodeId node)
{
    (void)pkt;
    (void)node;
}

void
InvariantChecker::onHop(const Packet &pkt, int routerId)
{
    (void)pkt;
    (void)routerId;
}

void
InvariantChecker::onDeliver(const Packet &pkt, NodeId node)
{
    (void)pkt;
    (void)node;
}

void
InvariantChecker::onConsume(const Packet &pkt, NodeId node,
                            const char *why)
{
    (void)pkt;
    (void)node;
    (void)why;
}

void
InvariantChecker::onDrop(const Packet &pkt, NodeId node,
                         const char *why)
{
    (void)pkt;
    (void)node;
    (void)why;
}

void
InvariantChecker::onFabricDrop(const Packet &pkt, int routerId,
                               const char *why)
{
    (void)routerId;
    // An injected fabric loss is a terminal lifecycle event, same as
    // a NIC-side drop.
    onDrop(pkt, invalidNode, why);
}

void
InvariantChecker::onCorrupt(const Packet &pkt, int routerId)
{
    (void)pkt;
    (void)routerId;
}

void
InvariantChecker::onRetransmit(const Packet &pkt, NodeId node)
{
    (void)pkt;
    (void)node;
}

void
InvariantChecker::onRelease(const Packet &pkt)
{
    (void)pkt;
}

void
InvariantChecker::onNodeCrash(NodeId node, Cycle now)
{
    (void)node;
    (void)now;
}

void
InvariantChecker::onNodeRestart(NodeId node, std::uint32_t epoch,
                                Cycle now)
{
    (void)node;
    (void)epoch;
    (void)now;
}

void
InvariantChecker::fail(const Packet &pkt, const std::string &msg) const
{
    std::string trail =
        audit_ ? audit_->provenance(pkt.id) : std::string("    (none)");
    panic("audit[%s]: %s\n  packet: %s\n  provenance:\n%s", name(),
          msg.c_str(), pkt.toString().c_str(), trail.c_str());
}

void
InvariantChecker::fail(const std::string &msg) const
{
    panic("audit[%s]: %s", name(), msg.c_str());
}

//===------------------------------------------------------------===//
// Standard checkers
//===------------------------------------------------------------===//

namespace
{

/**
 * Packet-lifecycle conservation: every packet that enters the
 * network is eventually delivered to a processor, consumed by a NIC
 * (acks, control), or dropped with a recorded reason -- exactly
 * once. A packet released to the pool while still in flight, or
 * delivered twice, is a protocol bug.
 */
class PacketLifecycleChecker : public InvariantChecker
{
  public:
    const char *name() const override { return "lifecycle"; }

    void
    onAlloc(const Packet &pkt) override
    {
        state_[pkt.id] = State();
    }

    void
    onSend(const Packet &pkt, NodeId node) override
    {
        (void)node;
        state_[pkt.id].sent = true;
    }

    void
    onInject(const Packet &pkt, NodeId node) override
    {
        State &st = state_[pkt.id];
        if (st.injected)
            fail(pkt, "injected into the network twice (node " +
                          std::to_string(node) +
                          "): duplicate transmission of a live packet");
        st.injected = true;
    }

    void
    onDeliver(const Packet &pkt, NodeId node) override
    {
        State &st = state_[pkt.id];
        if (st.delivered)
            fail(pkt, "duplicate delivery at node " +
                          std::to_string(node));
        st.delivered = true;
    }

    void
    onConsume(const Packet &pkt, NodeId node, const char *why) override
    {
        (void)node;
        (void)why;
        state_[pkt.id].consumed = true;
    }

    void
    onDrop(const Packet &pkt, NodeId node, const char *why) override
    {
        (void)node;
        (void)why;
        state_[pkt.id].dropped = true;
    }

    void
    onRelease(const Packet &pkt) override
    {
        auto it = state_.find(pkt.id);
        if (it == state_.end())
            return;
        const State &st = it->second;
        if (st.injected && !st.terminal())
            fail(pkt, "released back to the pool while in flight "
                      "(injected, but never delivered, consumed, or "
                      "dropped with a reason)");
        state_.erase(it);
    }

    void
    finish() override
    {
        // fail() is [[noreturn]], so *which* leaked packet gets
        // reported must not depend on unordered_map iteration
        // order: pick the smallest leaked id deterministically.
        std::uint64_t leaked = std::numeric_limits<std::uint64_t>::max();
        bool found = false;
        for (const auto &kv : state_) { // nifdy:unordered-ok(commutative min over ids)
            const State &st = kv.second;
            if (st.injected && !st.terminal() &&
                (!found || kv.first < leaked)) {
                leaked = kv.first;
                found = true;
            }
        }
        if (found)
            fail("packet #" + std::to_string(leaked) +
                 " leaked: injected but never delivered, "
                 "consumed, or dropped");
    }

  private:
    struct State
    {
        bool sent = false;
        bool injected = false;
        bool delivered = false;
        bool consumed = false;
        bool dropped = false;

        bool terminal() const { return delivered || consumed || dropped; }
    };

    std::unordered_map<std::uint64_t, State> state_;
};

/**
 * NIFDY admission discipline (paper Section 2.1): the OPT holds at
 * most O entries with at most one per destination; an active
 * outgoing bulk dialog never has more than the granted window
 * unacknowledged; every buffered receive-window slot holds a packet
 * whose monotone index lies inside the live window, whose wire
 * sequence number is its bulkSeq() encoding, and whose source
 * matches the dialog. The NIC's two skips are exact: a class whose
 * pool scan is skipped holds no admissible packet, and no lossy
 * snapshot is due before the cycle its timer walk resumes.
 */
class OptDisciplineChecker : public InvariantChecker
{
  public:
    const char *name() const override { return "opt-discipline"; }

    void
    endCycle(Cycle now) override
    {
        (void)now;
        for (Nic *nicPtr : audit()->nics()) {
            const auto *nn = dynamic_cast<const NifdyNic *>(nicPtr);
            if (!nn)
                continue;
            checkNic(*nn);
        }
    }

  private:
    void
    checkNic(const NifdyNic &nn) const
    {
        const NifdyConfig &cfg = nn.config();
        std::string at = "node " + std::to_string(nn.node());

        if (nn.optOccupancy() > cfg.opt)
            fail(at + ": OPT holds " +
                 std::to_string(nn.optOccupancy()) +
                 " entries, limit O=" + std::to_string(cfg.opt));

        const std::vector<NodeId> &opt = nn.optEntries();
        for (std::size_t i = 0; i < opt.size(); ++i)
            for (std::size_t j = i + 1; j < opt.size(); ++j)
                if (opt[i] == opt[j])
                    fail(at + ": two outstanding scalar packets for "
                              "destination " +
                         std::to_string(opt[i]));

        for (NetClass cls : {NetClass::request, NetClass::reply})
            if (nn.poolBlocked(cls) && nn.poolAdmits(cls))
                fail(at + ": " + netClassName(cls) +
                     " pool scan skipped while a pooled packet is "
                     "admissible");

        if (const auto *ln = dynamic_cast<const LossyNifdyNic *>(&nn))
            if (ln->earliestDeadline() < ln->timerBound())
                fail(at + ": retransmit snapshot due at cycle " +
                     std::to_string(ln->earliestDeadline()) +
                     ", timer walk skipped until " +
                     std::to_string(ln->timerBound()));

        if (nn.bulkActive()) {
            int unacked = nn.bulkUnacked();
            int window = nn.bulkWindowGranted();
            if (unacked < 0 || unacked > window)
                fail(at + ": outgoing bulk dialog has " +
                     std::to_string(unacked) +
                     " unacked packets, granted window " +
                     std::to_string(window));
        }

        for (int d = 0; d < nn.numInDialogs(); ++d) {
            NifdyNic::InDialogView v = nn.inDialogView(d);
            if (!v.active)
                continue;
            std::string dlg =
                at + " dialog " + std::to_string(d);
            if (v.buffered < 0 || v.buffered > cfg.window)
                fail(dlg + ": " + std::to_string(v.buffered) +
                     " buffered packets, window W=" +
                     std::to_string(cfg.window));
            if (v.ackedAt > v.delivered)
                fail(dlg + ": acked frontier " +
                     std::to_string(v.ackedAt) +
                     " ahead of delivered frontier " +
                     std::to_string(v.delivered));
            for (std::size_t s = 0; s < v.slots->size(); ++s) {
                const Packet *pkt = (*v.slots)[s];
                if (!pkt)
                    continue;
                std::int64_t idx = pkt->bulkIndex;
                if (idx < v.delivered ||
                    idx >= v.delivered + cfg.window)
                    fail(*pkt, dlg + ": buffered bulk index " +
                                   std::to_string(idx) +
                                   " outside live window [" +
                                   std::to_string(v.delivered) + ", " +
                                   std::to_string(v.delivered +
                                                  cfg.window) +
                                   ")");
                if (static_cast<std::int64_t>(s) != idx % cfg.window)
                    fail(*pkt, dlg + ": bulk index " +
                                   std::to_string(idx) +
                                   " stored in slot " +
                                   std::to_string(s));
                if (pkt->seq != bulkSeq(idx, cfg.window))
                    fail(*pkt,
                         dlg + ": wire sequence number " +
                             std::to_string(pkt->seq) +
                             " is not index " + std::to_string(idx) +
                             " mod seqSpace " +
                             std::to_string(cfg.seqSpace()));
                if (pkt->src != v.src)
                    fail(*pkt, dlg + ": buffered packet from node " +
                                   std::to_string(pkt->src) +
                                   ", dialog belongs to node " +
                                   std::to_string(v.src));
            }
        }
    }
};

/**
 * Sleep discipline (DESIGN.md section 2.1): the kernel skips a
 * component until its wake, which is exact only if no step before
 * it could act. At each end of cycle every NIC's wake is no later
 * than its next work recomputed from its state (Nic::nextWork()),
 * and every processor's no later than the end of its busy time
 * (Processor::nextWork()), so an event that gave a sleeper work
 * without waking it is named here.
 */
class WakeDisciplineChecker : public InvariantChecker
{
  public:
    const char *name() const override { return "wake-discipline"; }

    void
    endCycle(Cycle now) override
    {
        for (const Nic *nic : audit()->nics())
            check("NIC", nic->node(), nic->wake(), nic->nextWork(now),
                  now);
        for (const Processor *proc : audit()->processors())
            check("processor", proc->id(), proc->wake(),
                  proc->nextWork(now), now);
    }

  private:
    void
    check(const char *kind, NodeId node, Cycle wake, Cycle work,
          Cycle now) const
    {
        if (wake <= work)
            return;
        auto at = [](Cycle c) {
            return c == neverCycle ? std::string("never")
                                   : "cycle " + std::to_string(c);
        };
        fail("node " + std::to_string(node) + " " + kind +
             " sleeps until " + at(wake) + " but has work at " +
             at(work) + " (end of cycle " + std::to_string(now) + ")");
    }
};

/**
 * Capacity conservation: router buffer occupancy never exceeds the
 * configured total depth, and no channel carries more flits than the
 * credit protocol allows (its attached consumer's buffer capacity).
 */
class CapacityChecker : public InvariantChecker
{
  public:
    const char *name() const override { return "capacity"; }

    void
    endCycle(Cycle now) override
    {
        (void)now;
        for (const Router *r : audit()->routers()) {
            int buffered = r->bufferedFlits();
            int cap = r->bufferCapacityFlits();
            if (buffered < 0 || buffered > cap)
                fail("router " + std::to_string(r->id()) + " buffers " +
                     std::to_string(buffered) + " flits, capacity " +
                     std::to_string(cap));
        }
        for (const Audit::WatchedChannel &wc : audit()->channels()) {
            int cap = wc.capacityFlits > 0 ? wc.capacityFlits
                                           : wc.ch->capacityFlits();
            if (cap > 0 && wc.ch->inFlight() > cap)
                fail("channel carries " +
                     std::to_string(wc.ch->inFlight()) +
                     " flits in flight, credit-bounded capacity " +
                     std::to_string(cap));
        }
    }
};

/**
 * In-order delivery per (source, destination): data packets are
 * stamped in NIC-send order and must reach the destination
 * processor in that order, on every topology including adaptive /
 * multipath configurations (the NIFDY guarantee). Packets the
 * protocol exempts from ordering (noAck) and retransmission clones
 * (never stamped) are skipped.
 */
class DeliveryOrderChecker : public InvariantChecker
{
  public:
    const char *name() const override { return "delivery-order"; }

    void
    onSend(const Packet &pkt, NodeId node) override
    {
        (void)node;
        if (pkt.noAck || pkt.src == invalidNode ||
            pkt.dst == invalidNode)
            return;
        stampOf_[pkt.id] = ++nextStamp_[key(pkt)];
    }

    void
    onDeliver(const Packet &pkt, NodeId node) override
    {
        auto it = stampOf_.find(pkt.id);
        if (it == stampOf_.end())
            return; // unstamped: retransmission clone or exempt
        std::uint64_t stamp = it->second;
        stampOf_.erase(it);
        std::uint64_t &last = lastDelivered_[key(pkt)];
        if (stamp <= last)
            fail(pkt, "out-of-order delivery at node " +
                          std::to_string(node) + ": send-order stamp " +
                          std::to_string(stamp) +
                          " arrived after stamp " +
                          std::to_string(last) + " for flow " +
                          std::to_string(pkt.src) + "->" +
                          std::to_string(pkt.dst));
        last = stamp;
    }

    void
    onRelease(const Packet &pkt) override
    {
        stampOf_.erase(pkt.id); // dropped or consumed before delivery
    }

  private:
    static std::uint64_t
    key(const Packet &pkt)
    {
        return (static_cast<std::uint64_t>(
                    static_cast<std::uint32_t>(pkt.src))
                << 32) |
               static_cast<std::uint32_t>(pkt.dst);
    }

    std::unordered_map<std::uint64_t, std::uint64_t> stampOf_;
    std::unordered_map<std::uint64_t, std::uint64_t> nextStamp_;
    std::unordered_map<std::uint64_t, std::uint64_t> lastDelivered_;
};

/**
 * Fault discipline: in-fabric drops and corruptions may only happen
 * when a fault plan is active (Audit::setExpectFaults). On a
 * lossless fabric any such event is a simulator bug, not a protocol
 * condition, and is reported immediately with provenance.
 */
class FaultDisciplineChecker : public InvariantChecker
{
  public:
    const char *name() const override { return "fault-discipline"; }

    void
    onFabricDrop(const Packet &pkt, int routerId,
                 const char *why) override
    {
        if (!audit()->expectFaults())
            fail(pkt, "packet dropped inside the fabric at router " +
                          std::to_string(routerId) + " (" + why +
                          ") with no fault plan active");
        InvariantChecker::onFabricDrop(pkt, routerId, why);
    }

    void
    onCorrupt(const Packet &pkt, int routerId) override
    {
        if (!audit()->expectFaults())
            fail(pkt, "packet corrupted at router " +
                          std::to_string(routerId) +
                          " with no fault plan active");
    }
};

/**
 * Incarnation-epoch discipline: crashes and restarts may only happen
 * under an active endpoint fault plan (Audit::setExpectNodeFaults),
 * crash/restart events must alternate per node, each restart must
 * bump the node's epoch by exactly one, and every packet a node
 * injects must be stamped with that node's current epoch -- a stale
 * stamp means crash cleanup missed a buffered packet.
 */
class EpochDisciplineChecker : public InvariantChecker
{
  public:
    const char *name() const override { return "epoch-discipline"; }

    void
    onNodeCrash(NodeId node, Cycle now) override
    {
        if (!audit()->expectNodeFaults())
            fail("node " + std::to_string(node) + " crashed at cycle " +
                 std::to_string(now) + " with no node-fault plan active");
        if (down_.count(node))
            fail("node " + std::to_string(node) +
                 " crashed while already down");
        down_.insert(node);
    }

    void
    onNodeRestart(NodeId node, std::uint32_t epoch, Cycle now) override
    {
        (void)now;
        if (!down_.count(node))
            fail("node " + std::to_string(node) +
                 " restarted while alive");
        down_.erase(node);
        std::uint32_t expected = epochOf_[node] + 1;
        if (epoch != expected)
            fail("node " + std::to_string(node) +
                 " restarted into epoch " + std::to_string(epoch) +
                 ", expected " + std::to_string(expected));
        epochOf_[node] = epoch;
    }

    void
    onInject(const Packet &pkt, NodeId node) override
    {
        if (pkt.src != node)
            return; // forwarded/ack traffic stamps its own source
        auto it = epochOf_.find(node);
        std::uint32_t expected = it == epochOf_.end() ? 0 : it->second;
        if (pkt.srcEpoch != expected)
            fail(pkt, "node " + std::to_string(node) +
                          " injected a packet stamped epoch " +
                          std::to_string(pkt.srcEpoch) +
                          ", node is in epoch " +
                          std::to_string(expected));
        if (down_.count(node))
            fail(pkt, "node " + std::to_string(node) +
                          " injected a packet while crashed");
    }

  private:
    std::set<NodeId> down_;
    std::unordered_map<NodeId, std::uint32_t> epochOf_;
};

} // namespace

//===------------------------------------------------------------===//
// Audit
//===------------------------------------------------------------===//

/** Per-packet provenance: a bounded event log keyed by packet id. */
struct Audit::Trail
{
    static constexpr std::size_t maxEvents = 64;
    std::unordered_map<std::uint64_t, std::vector<std::string>> events;
    Cycle lastCycle = 0;

    void
    append(std::uint64_t id, std::string event)
    {
        std::vector<std::string> &log = events[id];
        if (log.size() == maxEvents)
            log.push_back("... (trail truncated)");
        if (log.size() <= maxEvents)
            log.push_back(std::move(event));
    }
};

Audit::Audit() : trails_(std::make_unique<Trail>()) {}

Audit::~Audit() = default;

bool
Audit::envEnabled()
{
    static const bool enabled = [] {
        const char *v = std::getenv("NIFDY_AUDIT"); // nifdy:wallclock-ok(harness opt-in read once at startup, not behavioral)
        if (!v || !*v)
            return false;
        return std::strcmp(v, "0") != 0 && std::strcmp(v, "off") != 0 &&
               std::strcmp(v, "OFF") != 0;
    }();
    return enabled;
}

void
Audit::add(std::unique_ptr<InvariantChecker> checker)
{
    panic_if(!checker, "Audit::add(nullptr)");
    checker->audit_ = this;
    checkers_.push_back(std::move(checker));
}

void
Audit::installStandardCheckers(bool expectInOrder)
{
    add(std::make_unique<PacketLifecycleChecker>());
    add(std::make_unique<OptDisciplineChecker>());
    add(std::make_unique<CapacityChecker>());
    add(std::make_unique<FaultDisciplineChecker>());
    add(std::make_unique<EpochDisciplineChecker>());
    add(std::make_unique<WakeDisciplineChecker>());
    if (expectInOrder)
        add(std::make_unique<DeliveryOrderChecker>());
}

void
Audit::watchNic(Nic *nic)
{
    panic_if(!nic, "Audit::watchNic(nullptr)");
    nics_.push_back(nic);
}

void
Audit::watchProcessor(Processor *proc)
{
    panic_if(!proc, "Audit::watchProcessor(nullptr)");
    processors_.push_back(proc);
}

void
Audit::watchRouter(Router *router)
{
    panic_if(!router, "Audit::watchRouter(nullptr)");
    routers_.push_back(router);
}

void
Audit::watchChannel(Channel *ch, int capacityFlits)
{
    panic_if(!ch, "Audit::watchChannel(nullptr)");
    channels_.push_back({ch, capacityFlits});
}

void
Audit::record(const Packet &pkt, std::string event)
{
    ++eventsSeen_;
    trails_->append(pkt.id,
                    "@" + std::to_string(trails_->lastCycle) + " " +
                        std::move(event));
}

void
Audit::alloc(const Packet &pkt)
{
    record(pkt, "alloc");
    for (auto &c : checkers_)
        c->onAlloc(pkt);
}

void
Audit::send(const Packet &pkt, NodeId node)
{
    record(pkt, "send at nic" + std::to_string(node));
    for (auto &c : checkers_)
        c->onSend(pkt, node);
}

void
Audit::inject(const Packet &pkt, NodeId node)
{
    record(pkt, "inject at nic" + std::to_string(node));
    for (auto &c : checkers_)
        c->onInject(pkt, node);
}

void
Audit::hop(const Packet &pkt, int routerId)
{
    record(pkt, "hop through router" + std::to_string(routerId));
    for (auto &c : checkers_)
        c->onHop(pkt, routerId);
}

void
Audit::deliver(const Packet &pkt, NodeId node)
{
    record(pkt, "deliver at nic" + std::to_string(node));
    for (auto &c : checkers_)
        c->onDeliver(pkt, node);
}

void
Audit::consume(const Packet &pkt, NodeId node, const char *why)
{
    record(pkt, "consume at nic" + std::to_string(node) + " (" + why +
                    ")");
    for (auto &c : checkers_)
        c->onConsume(pkt, node, why);
}

void
Audit::drop(const Packet &pkt, NodeId node, const char *why)
{
    record(pkt, "drop at nic" + std::to_string(node) + " (" + why + ")");
    for (auto &c : checkers_)
        c->onDrop(pkt, node, why);
}

void
Audit::fabricDrop(const Packet &pkt, int routerId, const char *why)
{
    record(pkt, "fabric-drop at router" + std::to_string(routerId) +
                    " (" + why + ")");
    ++fabricDrops_;
    for (auto &c : checkers_)
        c->onFabricDrop(pkt, routerId, why);
}

void
Audit::corrupt(const Packet &pkt, int routerId)
{
    record(pkt, "corrupt at router" + std::to_string(routerId));
    ++corruptions_;
    for (auto &c : checkers_)
        c->onCorrupt(pkt, routerId);
}

void
Audit::retransmit(const Packet &pkt, NodeId node)
{
    record(pkt, "retransmit #" + std::to_string(pkt.attempt) +
                    " of pkt#" + std::to_string(pkt.cloneOf) +
                    " at nic" + std::to_string(node));
    ++retransmits_;
    for (auto &c : checkers_)
        c->onRetransmit(pkt, node);
}

void
Audit::release(const Packet &pkt)
{
    // Fan out first: a checker that objects to this release needs
    // the provenance trail intact to report it.
    for (auto &c : checkers_)
        c->onRelease(pkt);
    ++eventsSeen_;
    trails_->events.erase(pkt.id);
}

void
Audit::nodeCrash(NodeId node, Cycle now)
{
    ++eventsSeen_;
    ++nodeCrashes_;
    for (auto &c : checkers_)
        c->onNodeCrash(node, now);
}

void
Audit::nodeRestart(NodeId node, std::uint32_t epoch, Cycle now)
{
    ++eventsSeen_;
    ++nodeRestarts_;
    for (auto &c : checkers_)
        c->onNodeRestart(node, epoch, now);
}

void
Audit::endCycle(Cycle now)
{
    trails_->lastCycle = now;
    for (auto &c : checkers_)
        c->endCycle(now);
}

void
Audit::finish()
{
    for (auto &c : checkers_)
        c->finish();
}

std::string
Audit::provenance(std::uint64_t pktId) const
{
    auto it = trails_->events.find(pktId);
    if (it == trails_->events.end())
        return "    (no recorded events)";
    std::ostringstream os;
    for (std::size_t i = 0; i < it->second.size(); ++i) {
        if (i)
            os << "\n";
        os << "    " << it->second[i];
    }
    return os.str();
}

} // namespace nifdy
