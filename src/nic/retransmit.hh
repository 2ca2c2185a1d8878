/**
 * @file
 * Section 6.2 extension: NIFDY over unreliable (packet-dropping)
 * networks, e.g. networks of workstations.
 *
 * The sender keeps one retransmission buffer and timer per OPT
 * entry and per outstanding bulk packet; an expired timer re-sends
 * the packet. One duplicate bit in the header (toggled per fresh
 * scalar packet, kept across retransmissions) plus the bulk
 * sequence numbers let the receiver discard duplicates and repeat
 * the lost ack.
 *
 * Loss reaches this NIC two ways: the legacy receiver-side coin
 * flip (dropProb below, kept for the paper's workstation model) and
 * the in-fabric FaultInjector (sim/fault.hh), which drops packets
 * inside routers and marks others corrupted; corrupted packets are
 * discarded here by the CRC-check analogy. Both exercise the same
 * recovery paths.
 *
 * Recovery is hardened against sustained faults: the per-snapshot
 * timer backs off exponentially (backoffFactor, capped) with seeded
 * jitter so synchronized retransmission storms decorrelate, and a
 * configurable retry cap declares an unreachable peer dead -- the
 * NIC purges all state aimed at it, discards later sends to it, and
 * reports the peer so the run terminates with a diagnosis instead
 * of retrying forever.
 */

#ifndef NIFDY_NIC_RETRANSMIT_HH
#define NIFDY_NIC_RETRANSMIT_HH

#include <map>

#include "nic/nifdy.hh"
#include "sim/rng.hh"
#include "sim/stats.hh"

namespace nifdy
{

/** Extra knobs for the lossy-network extension. */
struct LossyConfig
{
    /** Probability that an arriving packet is dropped. */
    double dropProb = 0.0;
    /** Cycles before an unacked packet is retransmitted. */
    Cycle retxTimeout = 4000;
    /** Timeout multiplier applied per retry (1 = fixed timer). */
    double backoffFactor = 1.0;
    /** Backoff ceiling in cycles; 0 = 16 x retxTimeout. */
    Cycle maxRetxTimeout = 0;
    /** Re-arm jitter as a fraction of the timeout ([0, 1)),
     * spread +-jitterFrac/2 around the nominal deadline. */
    double jitterFrac = 0.0;
    /** Give up on a packet after this many retries and declare the
     * peer dead (0 = retry forever, the legacy behaviour). */
    int maxRetries = 0;

    /** Effective backoff ceiling. */
    Cycle effMaxTimeout() const
    {
        return maxRetxTimeout ? maxRetxTimeout : retxTimeout * 16;
    }

    /** Fatal on out-of-range knobs. */
    void validate() const;
};

class LossyNifdyNic : public NifdyNic
{
  public:
    LossyNifdyNic(NodeId node, const Network::NodePorts &ports,
                  const NicParams &params, const NifdyConfig &cfg,
                  const LossyConfig &lossy, PacketPool &pool);

    void step(Cycle now) override;
    /** NIFDY's next work, or the timer bound if earlier. */
    Cycle nextWork(Cycle now) const override;
    bool transitIdle() const override;

    //! @name Recovery statistics
    //! @{
    std::uint64_t retransmissions() const { return retransmissions_; }
    std::uint64_t packetsDropped() const { return packetsDropped_; }
    std::uint64_t duplicatesSeen() const { return duplicatesSeen_; }
    /** Packets discarded by the CRC check (in-fabric corruption). */
    std::uint64_t corruptDropped() const { return corruptDropped_; }
    /** Cycles from first transmission to the clearing ack, sampled
     * for every packet that needed at least one retransmission. */
    const Distribution &recoveryLatency() const
    {
        return recoveryLatency_;
    }
    //! @}

    /** Current re-arm timeout of @p dst's scalar snapshot, or 0 when
     * none is outstanding (backoff introspection for tests). */
    Cycle scalarRetxTimeout(NodeId dst) const;

    /** Snapshots checkTimers() examined (bench_kernel's
     * work.nic.timers). */
    std::uint64_t timerChecks() const { return timerChecks_; }

    //! @name Introspection (audit layer)
    //! @{
    /** checkTimers() walks the snapshots only from this cycle on. */
    Cycle timerBound() const { return nextDeadline_; }
    /** The earliest snapshot deadline (neverCycle when none). */
    Cycle earliestDeadline() const;
    //! @}

  protected:
    Packet *nextToInject(NetClass cls, Cycle now) override;
    /** NIFDY's queues, or a retransmission of class @p cls. */
    bool injectQueued(NetClass cls) const override;
    void onPacketDelivered(Packet *pkt, Cycle now) override;
    void onDataInjected(Packet *pkt, Cycle now) override;
    void onAckProcessed(const Packet &ack, Cycle now) override;
    bool isDuplicate(Packet &pkt, Cycle now) override;
    void onCrash(Cycle now) override;
    void onPeerRestart(NodeId peer, Cycle now) override;
    void onBulkTeardown(NodeId peer, Cycle now) override;
    void onPeerDead(NodeId peer, Cycle now) override;

  private:
    struct Snapshot
    {
        Packet copy;
        Cycle deadline = 0;
        /** Current re-arm timeout (grows under backoff). */
        Cycle timeout = 0;
        /** When the original transmission was injected. */
        Cycle firstSent = 0;
        /** Id of the original packet (clone provenance). */
        std::uint64_t origId = 0;
        int retries = 0;
    };

    void checkTimers(Cycle now);
    void retransmit(Snapshot &snap, Cycle now);
    /** Apply backoff to @p snap and re-arm its deadline. */
    void rearm(Snapshot &snap, Cycle now);
    /** @p t spread by +-jitterFrac/2 (seeded, deterministic). */
    Cycle jittered(Cycle t);
    /** Purge retransmission state aimed at @p peer. When @p bulkOnly
     * only the bulk dialog's snapshots and clones go (dialog
     * teardown keeps the scalar timer alive). */
    void purgeRetxState(NodeId peer, Cycle now, bool bulkOnly,
                        const char *why);

    LossyConfig lossy_;
    Rng dropRng_;
    Rng backoffRng_;
    /** Scalar snapshots keyed by destination (one per OPT entry). */
    std::map<NodeId, Snapshot> scalarRetx_;
    /** Bulk snapshots keyed by monotone send index. */
    std::map<std::int64_t, Snapshot> bulkRetx_;
    /** Sender-side scalar sequence per destination. */
    std::map<NodeId, std::int64_t> sendScalarIdx_;
    /** Receiver-side last accepted scalar index per source. */
    std::map<NodeId, std::int64_t> recvScalarIdx_;
    Ring<Packet *> retxQueue_;
    /** A lower bound on every snapshot's deadline: lowered when a
     * snapshot is armed, recomputed after each walk, and left alone
     * when one is erased (a stale low bound costs one walk). */
    Cycle nextDeadline_ = neverCycle;

    std::uint64_t retransmissions_ = 0;
    std::uint64_t packetsDropped_ = 0;
    std::uint64_t duplicatesSeen_ = 0;
    std::uint64_t corruptDropped_ = 0;
    std::uint64_t timerChecks_ = 0;
    Distribution recoveryLatency_{"recoveryLatency"};
};

} // namespace nifdy

#endif // NIFDY_NIC_RETRANSMIT_HH
