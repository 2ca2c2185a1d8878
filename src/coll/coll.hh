/**
 * @file
 * NIC-resident collective subsystem: barrier, broadcast, and
 * combining reduce over a configurable k-ary tree embedded in the
 * node id space (parent(n) = (n-1)/k), in the style of the
 * Quadrics/Myrinet NIC-based collective protocols.
 *
 * A CollEngine is attached to each Nic (Nic::setCollEngine) and runs
 * entirely in the NIC step path: collective packets (PacketType::coll,
 * ctrlOnly) carry a (collSeq, round, epoch) header; interior engines
 * combine and forward their children's contributions without waking
 * the processor, which only sees enter/exit through the Barrier
 * facade. All three operations share one reduce-shaped protocol:
 * contributions flow up the tree (request class), accepts/releases
 * flow down (reply class); a barrier is a reduce of nothing, a
 * broadcast is a reduce whose released value is the root's.
 *
 * Crash safety (the PR 4 endpoint fault domain composes in):
 *  - contributions retransmit on a seeded jittered exponential
 *    backoff (the PR 2 lossy discipline) until the release arrives;
 *    every retransmission is a freshly allocated clone;
 *  - a parent that stays silent for coll.maxRetries backed-off
 *    rounds is presumed dead and the child re-parents to the next
 *    static ancestor, self-promoting to acting root above node 0;
 *  - a child that stays silent is probed (coll.probeTimeout apart);
 *    live children answer with status packets, and after
 *    coll.maxProbes unanswered probes the subtree is pruned and the
 *    collective completes among survivors with the degraded bit set;
 *  - stale incarnation epochs are rejected and newer ones adopted
 *    (extending the PR 4 epochAdmit discipline to collective state);
 *    a restarted node rejoins as a combiner/forwarder -- and, being
 *    permanently excused, as a free-runner that no collective ever
 *    blocks -- at the next collective sequence number it hears;
 *  - completed collectives leave a bounded tombstone ring so
 *    arbitrarily late contributions are answered with the recorded
 *    release instead of reopening state.
 *
 * See DESIGN.md section 13 for the protocol walkthrough, the
 * recovery state machine, and the coll.* knob table.
 */

#ifndef NIFDY_COLL_COLL_HH
#define NIFDY_COLL_COLL_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "net/packet.hh"
#include "sim/ring.hh"
#include "sim/rng.hh"
#include "sim/types.hh"

namespace nifdy
{

class InvariantChecker;
class Probes;

/** The offloaded operations. */
enum class CollOp : std::uint8_t
{
    barrier, //!< synchronization only, no payload
    bcast,   //!< the root's value is released to everyone
    reduce   //!< integer sum of every participant's value
};

const char *collOpName(CollOp op);

/** Wire subkinds of a PacketType::coll packet (Packet::collKind). */
enum class CollKind : std::uint8_t
{
    contrib, //!< child -> parent: combined subtree value (up, request)
    accept,  //!< parent -> child: contribution heard (down, reply)
    release, //!< parent -> child: result, collective over (down, reply)
    probe,   //!< parent -> child: are you alive? (down, reply)
    status   //!< child -> parent: alive, still combining (up, request)
};

/** Runtime knobs (CLI: coll.offload / coll.arity / ...). */
struct CollConfig
{
    /** Master switch (coll.offload=nic). Off = software barrier,
     * byte-identical to pre-collective builds. */
    bool offload = false;
    /** Combining-tree fan-out k; parent(n) = (n-1)/k. */
    int arity = 4;
    /** Initial contribution retransmit timeout, cycles. */
    Cycle timeout = 3000;
    /** Timeout multiplier per retransmission round (>= 1). */
    double backoffFactor = 2.0;
    /** Backoff ceiling in cycles (0 = 16x coll.timeout). */
    Cycle maxTimeout = 0;
    /** Retransmit deadline jitter fraction, [0, 1). */
    double jitterFrac = 0.25;
    /** Unanswered contribution rounds before the parent is presumed
     * dead and the child re-parents up the static ancestor chain. */
    int maxRetries = 6;
    /** Silence gate before an awaited child is probed, and between
     * probes (the collective layer's lastHeard/reclaimTimeout). */
    Cycle probeTimeout = 6000;
    /** Unanswered probes before a silent subtree is pruned. */
    int maxProbes = 4;
    /** Retransmission-jitter RNG seed; 0 = experiment seed. */
    std::uint64_t seed = 0;

    /** Fatal on out-of-range knobs. */
    void validate() const;

    /** Backoff ceiling with the 0 = 16x default applied. */
    Cycle effMaxTimeout() const
    {
        return maxTimeout > 0 ? maxTimeout : 16 * timeout;
    }

    /**
     * Upper bound on the cycles one crash needs to cut through the
     * whole tree (prune budget + re-parent budget per level, both
     * directions); Experiment::runUntilDone extends its no-progress
     * grace to cover it.
     */
    Cycle worstCaseRecovery(int numNodes) const;
};

//! @name Static k-ary tree embedding in the node id space
//! @{
/** Parent of @p n (invalidNode for the root, node 0). */
NodeId collParent(NodeId n, int arity);
/** First child of @p n (children are k*n+1 .. k*n+k). */
NodeId collFirstChild(NodeId n, int arity);
/** Children of @p n that exist in a @p numNodes tree. */
int collNumChildren(NodeId n, int arity, int numNodes);
/** Levels in the tree (1 for a single node). */
int collTreeDepth(int numNodes, int arity);
//! @}

/**
 * Per-node collective engine. The owning Nic pumps it every cycle
 * (timers, probes, retransmissions), drains its outbox with strict
 * injection priority, and routes every delivered PacketType::coll
 * packet into deliver(), which consumes it. The processor side goes
 * through the Barrier facade (enter / localReleased / lastResult).
 */
class CollEngine
{
  public:
    CollEngine(NodeId node, int numNodes, const CollConfig &cfg,
               PacketPool &pool);

    //! @name Processor side (via the Barrier facade)
    //! @{
    /**
     * Enter the next collective with this node's @p value (ignored
     * for barriers; the root's value is the broadcast payload).
     * Excused nodes are free-runners: enter() resolves immediately
     * with a degraded zero result.
     */
    void enter(CollOp op, std::int64_t value, Cycle now);

    /** Is a locally entered collective still unresolved? */
    bool localPending() const { return localSeq_ >= 0; }

    /** May the processor proceed past its last enter()? */
    bool localReleased() const { return localSeq_ < 0; }

    /** Result of the last resolved collective (sum for reduce, the
     * root's value for bcast, participant count for barrier). */
    std::int64_t lastResult() const { return lastResult_; }

    /** Did the last resolved collective complete on a pruned or
     * reshaped tree (a deterministic outcome, never a hang)? */
    bool lastDegraded() const { return lastDegraded_; }

    /**
     * Permanently excuse this node (it crashed): a pending local
     * collective is abandoned, and the engine -- whose soft state a
     * crash wipes, all but this flag -- afterwards acts as a pure
     * combiner/forwarder whose subtrees complete without a local
     * contribution.
     */
    void setExcused(Cycle now);
    bool excusedNode() const { return excused_; }
    //! @}

    /** Fire observer events on @p probes (an experiment's bus). */
    void setProbes(const Probes *probes) { probes_ = probes; }

    //! @name NIC side (called from the owning Nic's step path)
    //! @{
    /** Timers: contribution retransmissions, probes, pruning. */
    void pump(Cycle now);

    /** Next outbox packet for class @p cls (strict priority over
     * the NIC's own traffic), or nullptr. */
    Packet *nextToInject(NetClass cls, Cycle now);

    /** A PacketType::coll packet arrived; the engine consumes it
     * (audit consume/drop + pool release). */
    void deliver(Packet *pkt, Cycle now);

    /** Fail-stop: drop the outbox, wipe every slot (excused_ and
     * the epoch table survive -- peers' epochs are facts). */
    void onCrash(Cycle now);

    /** Cold restart: nothing to rebuild; the engine re-learns open
     * sequences from the packets (and probes) it receives. */
    void onRestart(Cycle now);

    /** No outbox packets and no open collective state. */
    bool idle() const;
    //! @}

    NodeId node() const { return node_; }
    const CollConfig &config() const { return cfg_; }

    //! @name Accounting (metrics / reports / audit)
    //! @{
    std::uint64_t entered() const { return entered_; }
    std::uint64_t localCompleted() const { return localCompleted_; }
    std::uint64_t localAbandoned() const { return localAbandoned_; }
    std::uint64_t degradedCompletions() const { return degraded_; }
    std::uint64_t retransmissions() const { return retx_; }
    std::uint64_t childrenPruned() const { return pruned_; }
    std::uint64_t epochRejects() const { return epochRejects_; }
    std::uint64_t collPacketsSent() const { return packetsSent_; }
    std::uint64_t probesSent() const { return probesSent_; }
    std::uint64_t tombstoneReplies() const { return tombReplies_; }
    /** Remote-driven slots evicted because the tree ran more than
     * numSlots sequences past this (lagging) node. */
    std::uint64_t slotEvictions() const { return evictions_; }
    /** Open collective slots (audit: must be 0 at end of run). */
    int openCollectives() const;
    //! @}

  private:
    /** One awaited/recorded contributor below us. */
    struct Child
    {
        NodeId node = invalidNode;
        bool expected = false; //!< static child, awaited for completion
        bool got = false;      //!< contribution received (value below)
        bool pruned = false;   //!< presumed dead after maxProbes
        std::int64_t value = 0;
        std::int32_t count = 0;
        bool degraded = false;
        Cycle lastHeard = 0;
        Cycle probeAt = neverCycle;
        int probes = 0;
    };

    /** One open collective. reset() keeps the children capacity so
     * steady-state reuse allocates nothing (InDialog::reset style). */
    struct OpenColl
    {
        bool active = false;
        std::int32_t seq = -1;
        CollOp op = CollOp::barrier;
        bool entered = false; //!< local value folded in
        std::int64_t localValue = 0;
        bool degraded = false;
        bool degradeTraced = false;
        //! @name Upward state
        //! @{
        bool sentUp = false; //!< combined contribution is on its way
        std::int64_t upValue = 0;
        std::int32_t upCount = 0;
        NodeId parent = invalidNode;
        bool actingRoot = false;
        int retries = 0; //!< rounds since the parent last answered
        int attempt = 0; //!< total contribution sends (wire round)
        Cycle retxAt = neverCycle;
        Cycle curTimeout = 0;
        //! @}
        std::vector<Child> children;

        void reset();
    };

    /** Completed collective, kept so late contributions and probes
     * are answered with the recorded release. */
    struct Tombstone
    {
        std::int32_t seq = -1;
        CollOp op = CollOp::barrier;
        std::int64_t result = 0;
        std::int32_t count = 0;
        bool degraded = false;
        /** Our own combined up-contribution, replayed when a live
         * ancestor we abandoned probes for this sequence (the
         * split-tree wedge breaker). */
        std::int64_t upValue = 0;
        std::int32_t upCount = 0;
    };

    OpenColl *findSlot(std::int32_t seq);
    OpenColl *openSlot(std::int32_t seq, CollOp op, Cycle now);
    const Tombstone *findTomb(std::int32_t seq) const;
    Child *findChild(OpenColl &slot, NodeId n);
    Child *recordContributor(OpenColl &slot, NodeId n, Cycle now);

    /** Admit or reject @p pkt by incarnation epoch; adopts newer
     * epochs. False = stale, caller drops. */
    bool epochAdmit(const Packet &pkt);

    /** All awaited static children contributed or pruned, and the
     * local contribution (unless excused) is in: combine and send
     * up, or release at the root. */
    void maybeComplete(OpenColl &slot, Cycle now);

    /** Combine the local value and every received contribution. */
    void combine(OpenColl &slot);

    /** The released result when this node is the (acting) root. */
    std::int64_t rootResult(const OpenColl &slot) const;

    void sendContribution(OpenColl &slot, Cycle now);
    void releaseSlot(OpenColl &slot, std::int64_t result,
                     std::int32_t count, bool degraded, Cycle now);
    void sendReleaseTo(NodeId dst, std::int32_t seq, CollOp op,
                       std::int64_t result, std::int32_t count,
                       bool degraded, Cycle now);
    void markDegraded(OpenColl &slot, Cycle now, const char *why);
    void resolveLocal(std::int64_t result, bool degraded, Cycle now);

    void handleContrib(const Packet &pkt, Cycle now);
    void handleAccept(const Packet &pkt, Cycle now);
    void handleRelease(const Packet &pkt, Cycle now);
    void handleProbe(const Packet &pkt, Cycle now);
    void handleStatus(const Packet &pkt, Cycle now);

    Packet *makePacket(NodeId dst, CollKind kind, std::int32_t seq,
                       CollOp op, Cycle now);
    void queuePacket(Packet *pkt);
    Cycle jittered(Cycle timeout);

    NodeId node_;
    int numNodes_;
    CollConfig cfg_;
    PacketPool &pool_;
    const Probes *probes_;
    Rng rng_;

    std::vector<OpenColl> slots_;
    std::vector<Tombstone> tombs_; //!< fixed ring, tombHead_ next
    std::size_t tombHead_ = 0;
    /** Newest incarnation epoch seen per peer (epochAdmit). */
    std::vector<std::uint32_t> peerEpoch_;
    /** Outgoing coll packets per net class, drained by the NIC with
     * strict injection priority. */
    Ring<Packet *> outbox_[numNetClasses];

    //! @name Local (processor-facing) state
    //! @{
    std::int32_t nextLocalSeq_ = 0;
    std::int32_t localSeq_ = -1; //!< -1 = nothing pending
    std::int64_t lastResult_ = 0;
    bool lastDegraded_ = false;
    bool excused_ = false;
    //! @}

    //! @name Accounting
    //! @{
    std::uint64_t entered_ = 0;
    std::uint64_t localCompleted_ = 0;
    std::uint64_t localAbandoned_ = 0;
    std::uint64_t degraded_ = 0;
    std::uint64_t retx_ = 0;
    std::uint64_t pruned_ = 0;
    std::uint64_t epochRejects_ = 0;
    std::uint64_t packetsSent_ = 0;
    std::uint64_t probesSent_ = 0;
    std::uint64_t tombReplies_ = 0;
    std::uint64_t evictions_ = 0;
    //! @}
};

/**
 * Audit checker for the collective discipline: at end of run every
 * engine has resolved every locally entered collective (completed,
 * degraded, or abandoned-by-excuse -- never hanging) and holds no
 * open collective state or undrained outbox packets.
 */
std::unique_ptr<InvariantChecker>
makeCollDisciplineChecker(std::vector<CollEngine *> engines);

} // namespace nifdy

#endif // NIFDY_COLL_COLL_HH
