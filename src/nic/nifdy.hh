/**
 * @file
 * The NIFDY unit: a network interface with admission control,
 * end-to-end flow control, and in-order delivery (paper, Section 2).
 *
 * Scalar mode: at most one outstanding (unacknowledged) packet per
 * destination, tracked in the outstanding packet table (OPT, O
 * entries); at most O outstanding packets overall. An outgoing pool
 * of B buffers with a rank/eligibility discipline lets packets for
 * different destinations interleave, eliminating head-of-line
 * blocking. Every scalar packet is acked individually; the ack is
 * returned when the processor accepts the packet (the paper's
 * footnote-2 default; ack-on-arrival is available as an ablation).
 *
 * Bulk mode: a sender may request a bulk dialog via a header bit; a
 * receiver maintaining fewer than D dialogs grants one in the ack,
 * giving the sender a W-packet sliding window into dedicated
 * reorder buffers. Acks are combined, one per W/2 packets. In-order
 * bulk packets stream through; out-of-order ones wait in the
 * window. A bulk-exit header bit closes the dialog.
 *
 * Acks travel on the opposite logical network from their data
 * packet and are consumed by the receiving NIFDY unit.
 */

#ifndef NIFDY_NIC_NIFDY_HH
#define NIFDY_NIC_NIFDY_HH

#include <map>
#include <optional>

#include "nic/nic.hh"
#include "sim/ring.hh"

namespace nifdy
{

enum class StallCause : int;

/** Tunable NIFDY protocol parameters (paper, Section 2.1). */
struct NifdyConfig
{
    int opt = 8;    //!< O: outstanding packet table entries
    int pool = 8;   //!< B: outgoing buffer pool size (packets)
    int dialogs = 1; //!< D: bulk dialogs a receiver maintains
    int window = 8; //!< W: receiver window per dialog (packets)
    /** Footnote 2: ack when the processor accepts the packet. */
    bool ackOnAccept = true;
    /** Combined acks: one per max(1, W/2) packets. 0 = default. */
    int ackEvery = 0;
    /** Ack packet size in bytes. */
    int ackBytes = 8;
    /**
     * Section 6.1: piggyback scalar acks on application replies.
     * The ack for a packet marked expectsReply is held up to
     * piggybackWait cycles; if a data packet for the acker is
     * injected meanwhile, the ack rides along in its header.
     */
    bool piggybackAcks = false;
    Cycle piggybackWait = 300;

    bool bulkEnabled() const { return dialogs > 0 && window > 0; }
    int effAckEvery() const
    {
        if (ackEvery > 0)
            return std::min(ackEvery, window);
        return std::max(1, window / 2);
    }
    /** Sequence space for bulk packets. */
    int seqSpace() const { return 2 * std::max(1, window); }
};

class NifdyNic : public Nic
{
  public:
    NifdyNic(NodeId node, const Network::NodePorts &ports,
             const NicParams &params, const NifdyConfig &cfg,
             PacketPool &pool);

    bool canSend(const Packet &pkt) const override;
    void send(Packet *pkt, Cycle now) override;
    void step(Cycle now) override;
    /** Every cycle while a reclaim timeout is set (reclaimStalled()
     * polls the clock). */
    Cycle nextWork(Cycle now) const override;
    bool transitIdle() const override;

    const char *profileClass() const override { return "nifdy-nic"; }

    const NifdyConfig &config() const { return cfg_; }

    /**
     * Declare that endpoint faults (node crash/restart) are expected
     * this run. Bulk packets for an unknown dialog are then answered
     * with a dialog-reject ack and dropped instead of panicking --
     * a restarted receiver legitimately forgets its dialogs.
     */
    void setExpectPeerFailures(bool v) { expectPeerFailures_ = v; }

    /**
     * Reclaim protocol state aimed at unresponsive peers: an OPT
     * entry or outgoing bulk dialog with no ack progress for this
     * many cycles declares the peer dead and purges everything
     * directed at it (0 = never, the default). Must comfortably
     * exceed the worst-case ack round trip, including any
     * retransmission backoff, or live peers get reclaimed.
     */
    void setReclaimTimeout(Cycle t) { reclaimTimeout_ = t; }
    Cycle reclaimTimeout() const { return reclaimTimeout_; }

    //! @name Introspection (tests)
    //! @{
    int optOccupancy() const
    {
        return static_cast<int>(opt_.size());
    }
    int poolOccupancy() const
    {
        return static_cast<int>(sendPool_.size());
    }
    int acksQueued() const
    {
        return static_cast<int>(ackQueue_.size());
    }
    bool bulkActive() const { return out_.active; }
    NodeId bulkPeer() const { return out_.peer; }
    int activeInDialogs() const;
    //! @}

    //! @name Introspection (audit layer)
    //! @{
    /** Destinations currently holding an OPT entry. */
    const std::vector<NodeId> &optEntries() const { return opt_; }
    /** Unacked packets on the outgoing bulk dialog (0 if none). */
    int bulkUnacked() const
    {
        return out_.active ? out_.unacked() : 0;
    }
    /** Window granted to the outgoing bulk dialog (0 if none). */
    int bulkWindowGranted() const
    {
        return out_.active ? out_.window : 0;
    }
    /** Does nextToInject() skip class @p cls's pool scan? */
    bool poolBlocked(NetClass cls) const
    {
        return poolBlocked_[static_cast<int>(cls)];
    }
    /** Would a scan of class @p cls admit a pooled packet now? */
    bool poolAdmits(NetClass cls) const;

    /** Read-only view of one incoming bulk dialog slot. */
    struct InDialogView
    {
        bool active = false;
        NodeId src = invalidNode;
        std::int64_t delivered = 0;
        std::int64_t ackedAt = 0;
        int buffered = 0;
        const std::vector<Packet *> *slots = nullptr;
    };

    int numInDialogs() const { return static_cast<int>(in_.size()); }
    InDialogView inDialogView(int d) const
    {
        const InDialog &dlg = in_.at(static_cast<std::size_t>(d));
        return {dlg.active, dlg.src,      dlg.delivered,
                dlg.ackedAt, dlg.buffered, &dlg.slots};
    }
    //! @}

    //! @name Protocol statistics
    //! @{
    std::uint64_t acksSent() const { return acksSent_; }
    std::uint64_t acksPiggybacked() const { return acksPiggybacked_; }
    std::uint64_t bulkGrants() const { return bulkGrants_; }
    std::uint64_t bulkRejects() const { return bulkRejects_; }
    std::uint64_t bulkPacketsSent() const { return bulkPacketsSent_; }
    /** Arrivals rejected for carrying a stale incarnation epoch. */
    std::uint64_t epochRejects() const { return epochRejects_; }
    /** Bulk dialogs torn down mid-transfer (peer crash/restart). */
    std::uint64_t dialogTeardowns() const { return dialogTeardowns_; }
    //! @}

    /** Pooled packets nextToInject()'s scan tested for admission
     * (bench_kernel's work.nic.admissions). */
    std::uint64_t admissionChecks() const { return admissionChecks_; }

    //! @name Dead-peer reporting (graceful degradation)
    //! @{
    const std::vector<NodeId> &deadPeers() const { return deadPeers_; }
    bool isPeerDead(NodeId peer) const;
    /** Queued packets purged when peers were declared dead. */
    std::uint64_t packetsAbandoned() const { return abandoned_; }
    /** Sends accepted-and-discarded because the peer is dead. */
    std::uint64_t sendsToDeadPeers() const { return sendsToDeadPeers_; }
    //! @}

  protected:
    Packet *nextToInject(NetClass cls, Cycle now) override;
    /** An ack, a pooled send whose class scan is not skipped, or a
     * dialog close of class @p cls is queued. */
    bool injectQueued(NetClass cls) const override;
    /** Scalar packets only: acks are consumed here, and bulk packets
     * land in the window their dialog's grant set aside. */
    bool needsArrivalSlot(const Packet &pkt) const override;
    void onPacketDelivered(Packet *pkt, Cycle now) override;
    void onProcessorAccept(Packet *pkt, Cycle now) override;
    void onCrash(Cycle now) override;

    /**
     * Section 6.2 hooks: called when a data packet begins injection
     * (the retransmitting subclass snapshots it) and when an ack
     * arrives (the subclass clears timers). Defaults do nothing.
     */
    virtual void onDataInjected(Packet *pkt, Cycle now);
    virtual void onAckProcessed(const Packet &ack, Cycle now);

    /**
     * Endpoint-fault hooks. onPeerRestart fires when a packet from a
     * higher incarnation of @p peer arrives (the base tears down
     * receive dialogs from the peer and the outgoing dialog to it;
     * the lossy subclass also resyncs its duplicate filter).
     * onBulkTeardown fires when the outgoing bulk dialog to @p peer
     * is abandoned (the lossy subclass purges its retransmission
     * snapshots). onPeerDead fires when @p peer is declared dead,
     * before the base purges its own state.
     */
    virtual void onPeerRestart(NodeId peer, Cycle now);
    virtual void onBulkTeardown(NodeId peer, Cycle now);
    virtual void onPeerDead(NodeId peer, Cycle now);

    /**
     * Declare @p peer dead (@p why quoted in the warning): purge
     * every piece of state aimed at it and discard later sends to
     * it. Idempotent. A valid arrival from the peer resurrects it.
     */
    void markPeerDead(NodeId peer, Cycle now, const char *why);
    void resurrectPeer(NodeId peer);

    /** Latest incarnation epoch seen from @p peer (0 if none). */
    std::uint32_t knownEpoch(NodeId peer) const;

    /**
     * A bare ack for @p dst, answering data of class @p dataClass
     * sent by @p dst's incarnation @p epoch: type, source,
     * destination, the opposite class, size, creation cycle and
     * ackEpoch are set, and every other ack field keeps its
     * default. Every ack this NIC sends starts here.
     */
    Packet *newAck(NodeId dst, NetClass dataClass, std::uint32_t epoch,
                   Cycle now);

    /**
     * Build (but do not queue) an ack telling @p bulkPkt's sender
     * that the dialog it is streaming into no longer exists here
     * (this incarnation never granted it), so the sender tears it
     * down and may re-request.
     */
    Packet *makeDialogReject(const Packet &bulkPkt, Cycle now);

    /** Abandon the outgoing bulk dialog (if any) and notify the
     * subclass via onBulkTeardown(). The first queued packet for the
     * peer is re-marked as a bulk request so a live (restarted) peer
     * re-establishes the transfer. */
    void teardownOutDialog(Cycle now, const char *why);

    /**
     * Receiver-side dedup hook (Section 6.2); default accepts
     * everything. A subclass returning true must have queued any
     * repeated ack itself; the base releases the packet.
     */
    virtual bool isDuplicate(Packet &pkt, Cycle now);

    /**
     * Is monotone bulk index @p index inside dialog @p d's live,
     * still-empty receive window slot range?
     */
    bool bulkIndexFresh(int d, std::int64_t index) const;

    /** Does @p pkt's dialog exist, live, with a matching source? */
    bool bulkDialogMatches(const Packet &pkt) const;

    /** Total bulk packets injected on the current outgoing dialog. */
    std::int64_t bulkSentTotal() const { return out_.sentTotal; }

    /**
     * Final delivered count of the last completed dialog with
     * @p src (0 if none). Lets the lossy extension repeat the final
     * ack for duplicates arriving after a dialog was freed.
     */
    std::int64_t dialogTombstone(NodeId src) const;

    /** Queue the cumulative ack of live dialog @p d: everything
     * below its delivered frontier. */
    void cumulativeAck(int d, Cycle now);

    /** Enqueue a generated ack for injection. */
    void queueAck(Packet *ack);

    /** Is an ack of class @p cls waiting to be injected? */
    bool hasAckQueued(NetClass cls) const;

    /** Remove @p dst's entry from the OPT (ack or timeout). */
    bool clearOpt(NodeId dst);

    /**
     * Section 6.2 graceful degradation: forget every piece of
     * sender-side state directed at @p peer -- its OPT entry, the
     * outgoing bulk dialog if it belongs to the peer, and queued
     * sends/acks (dropped with a reason and released). Called by
     * the lossy extension when a retry cap declares the peer dead,
     * so an unreachable destination cannot wedge drain detection.
     *
     * @return number of queued packets released.
     */
    int abandonPeer(NodeId peer, Cycle now);

    /**
     * Tear down every receive dialog sourced by @p peer: buffered
     * window slots are released as drops with @p why (they never
     * reached the processor) and the slots are freed for fresh
     * grants. Returns the number of packets released.
     */
    int dropInDialogsFrom(NodeId peer, Cycle now, const char *why);

    /** Nothing valid has arrived from @p peer for reclaimTimeout_
     * cycles (never-heard peers count as silent since cycle 0). */
    bool peerSilent(NodeId peer, Cycle now) const;

    /**
     * Build (but do not queue) an ack for @p dataPkt. When
     * @p allowFreshGrant is false (duplicate re-acks), a bulk
     * request without an existing dialog is rejected rather than
     * granted, so late duplicates cannot leak dialog slots.
     */
    Packet *makeAck(const Packet &dataPkt, Cycle now,
                    bool allowFreshGrant = true);

    /**
     * Would the base protocol accept this bulk packet right now
     * (dialog active, source matches, sequence inside the window)?
     */
    bool bulkPacketAcceptable(const Packet &pkt) const;

    /**
     * Rank/eligibility test for a queued scalar packet: true when
     * admissionBlock() finds nothing holding it back (virtual so
     * fault-injection tests can break the admission discipline and
     * prove the audit layer catches it).
     */
    virtual bool eligibleScalar(const Packet &pkt,
                                std::size_t idx) const;

    /**
     * The admission rule: the cause of the first test that holds a
     * pooled packet back this cycle (ack wait, OPT slot, OPT cap,
     * closed bulk window), or nullopt when the packet is admissible.
     */
    std::optional<StallCause> admissionBlock(const Packet &pkt,
                                             std::size_t idx) const;

    /**
     * Latency anatomy: charge every pooled packet to its
     * admissionBlock() cause; an admissible packet waits only on
     * injection (injectCause()).
     */
    void classifyStalls(Cycle now) override;
    /** injectStall, unless the slot is held by a priority
     * collective packet: then collDefer. */
    StallCause injectCause(const Packet &pkt) const;

    /** Packets released on behalf of dead peers (subclasses add
     * their own purges, e.g. retransmission queues). */
    std::uint64_t abandoned_ = 0;

  private:
    /** Sender-side state of the (single) outgoing bulk dialog. */
    struct OutDialog
    {
        bool requested = false;
        bool active = false;
        bool exitSent = false;
        bool closePending = false;
        NodeId peer = invalidNode;
        NetClass cls = NetClass::request;
        int dialog = -1;
        int window = 0;
        std::int64_t sentTotal = 0; //!< bulk packets injected;
                                    //!< the wire seq is its mod-2W
                                    //!< compression
        std::int64_t ackedTotal = 0; //!< covered by cumulative acks
        /** Last cycle the dialog advanced (request, grant, send, or
         * ack progress); reclaimTimeout measures from here. */
        Cycle lastProgress = 0;

        int unacked() const
        {
            return static_cast<int>(sentTotal - ackedTotal);
        }
    };

    /** Receiver-side state of one incoming bulk dialog. */
    struct InDialog
    {
        bool active = false;
        NodeId src = invalidNode;
        NetClass cls = NetClass::request;
        std::int64_t delivered = 0;    //!< frontier: next index due
        std::int64_t ackedAt = 0;      //!< delivered at last ack
        std::vector<Packet *> slots;   //!< W reorder buffers
        int buffered = 0;
        bool exitDelivered = false;
        /** Last cycle the window was granted or advanced by an
         * arrival; the receiver-side reclaim clock. */
        Cycle lastProgress = 0;
        /** Root ids delivered since the last cumulative ack, kept
         * only while a Tracer is attached so each bulk packet's chain
         * gets an explicit ack event. */
        std::vector<std::uint64_t> traceAckPending;

        /** Return to the idle state while keeping the slots/pending
         * vector capacity: dialog slots are granted and torn down
         * throughout a run, and `*this = InDialog()` would free the
         * window buffers just to reallocate them at the next grant
         * (the steady-state allocation gate counts exactly that). */
        void reset()
        {
            active = false;
            src = invalidNode;
            cls = NetClass::request;
            delivered = 0;
            ackedAt = 0;
            slots.clear();
            buffered = 0;
            exitDelivered = false;
            lastProgress = 0;
            traceAckPending.clear();
        }
    };

    Packet *takeFromPool(std::size_t idx, Cycle now);
    /** Make @p pkt the outgoing dialog's next bulk packet: its
     * dialog, monotone index and that index's wire seq. */
    void labelBulk(Packet *pkt, Cycle now);
    /**
     * Incarnation-epoch gate, run before any protocol processing.
     * Returns false when @p pkt was rejected (and released): its
     * source epoch is older than the latest seen, or it carries an
     * ack answering a previous incarnation of this node. A higher
     * source epoch is adopted and fires onPeerRestart() first.
     */
    bool epochAdmit(Packet *pkt, Cycle now);
    /** Drop @p pkt as an epoch reject (counted, traced, released). */
    void rejectStaleEpoch(Packet *pkt, Cycle now, const char *why);
    /** Declare peers with reclaim-timeout-stale state dead. */
    void reclaimStalled(Cycle now);
    /** Interpret @p ack's acknowledgment fields (standalone ack
     * packet or piggybacked data packet alike). */
    void applyAck(const Packet &ack, Cycle now);
    /** Merge a waiting scalar ack for pkt->dst into @p pkt. */
    void tryPiggyback(Packet *pkt, Cycle now);
    void issueScalarAck(Packet *pkt, Cycle now);
    void drainDialog(int d, Cycle now);
    void maybeAckDialog(int d, Cycle now);
    /** The state admissionBlock() reads changed: the next scan of
     * either class runs. */
    void admissionChanged() { poolBlocked_[0] = poolBlocked_[1] = false; }

    NifdyConfig cfg_;
    std::vector<Packet *> sendPool_;
    /** Per class: the last pool scan admitted nothing, and nothing
     * admissionBlock() reads has changed since. */
    bool poolBlocked_[numNetClasses] = {};
    std::vector<NodeId> opt_;
    /** Cycle each OPT entry was created (parallel to opt_);
     * reclaimTimeout measures from here. */
    std::vector<Cycle> optSince_;
    Ring<Packet *> ackQueue_;
    OutDialog out_;
    std::vector<InDialog> in_;
    /** Final-ack tombstones, indexed by peer NodeId; 0 means none
     * (a completed dialog always delivered at least its exit
     * packet, so a real tombstone is nonzero). A flat vector rather
     * than a map: tombstones are laid and erased once per completed
     * dialog, and a map would allocate/free a tree node each time,
     * forever — this grows to the talked-to-peers high-water once
     * and then stays allocation-free. */
    std::vector<std::int64_t> tombstones_;
    /** What this incarnation has heard from one peer. */
    struct PeerState
    {
        /** Latest incarnation epoch seen. */
        std::uint32_t epoch = 0;
        /** Cycle of the last valid arrival: the reclaim liveness
         * gate (a stalled-but-talking peer is not dead). */
        Cycle lastHeard = 0;
    };
    /** Keyed by the peers heard from, so each delivered packet costs
     * one lookup and each peer one node. */
    std::map<NodeId, PeerState> peers_;
    std::vector<NodeId> deadPeers_;
    Cycle reclaimTimeout_ = 0;
    bool expectPeerFailures_ = false;

    std::uint64_t acksSent_ = 0;
    std::uint64_t acksPiggybacked_ = 0;
    std::uint64_t bulkGrants_ = 0;
    std::uint64_t bulkRejects_ = 0;
    std::uint64_t bulkPacketsSent_ = 0;
    std::uint64_t epochRejects_ = 0;
    std::uint64_t dialogTeardowns_ = 0;
    std::uint64_t sendsToDeadPeers_ = 0;
    std::uint64_t admissionChecks_ = 0;
};

} // namespace nifdy

#endif // NIFDY_NIC_NIFDY_HH
