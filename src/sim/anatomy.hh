/**
 * @file
 * Latency anatomy: per-packet stall-cause attribution.
 *
 * Every cycle of a sampled data packet's life between the app-side
 * send (Nic::send stamps createdAt) and the app-side receive
 * (Processor::poll accepting it from the arrival FIFO) is attributed
 * to exactly one StallCause. The attribution is a tiling: a packet's
 * record carries the cause it is currently in and the cycle that
 * segment started; every cause change closes the open segment
 * [last, now) and opens the next one, so the per-cause cycle counts
 * sum to the end-to-end latency *exactly* -- the conservation
 * invariant checked per packet on completion (panic on violation)
 * and in aggregate by the audit layer's latency-anatomy checker and
 * by `tools/analyze.py latency --check-conservation` in CI.
 *
 * Cost model: the Anatomy is a probe-bus sink (sim/probes.hh), so
 * while none is attached (anatomy.enabled defaults to off) each event
 * costs the bus's one inlined test, and anatomy-off runs produce
 * byte-identical reports. When attached, per-lifecycle sampling
 * (anatomy.sampleRate, keyed on a deterministic hash of the packet's
 * root id so retransmission clones share their original's record)
 * bounds the bookkeeping.
 *
 * Attribution points (see DESIGN.md section 8 for the taxonomy):
 *  - the NICs classify every queued-but-not-injected data packet
 *    once per cycle (Nic::classifyStalls): NIFDY charges the cause
 *    its admission rule returns (ack wait / OPT slot / OPT cap /
 *    closed bulk window, else injection backpressure), the plain
 *    NICs charge the whole FIFO to injection backpressure;
 *  - the router charges head-of-VC allocation failures to
 *    arbitration loss and successful hops back to wire transit
 *    (post-allocation switch residency and serialization stay
 *    "wire": the switch pass is bandwidth, not a protocol stall);
 *  - drops (receiver CRC/loss, fabric faults) move the record to
 *    retransmit backoff until the Section 6.2 clone re-injects;
 *    stale-incarnation rejects move it to epoch recovery;
 *  - the bulk window reorder buffer and the arrival FIFO charge
 *    reorder wait and receive-side software overhead respectively.
 *
 * Records that never reach the processor (terminal drops, dead
 * peers, crashes, packets still in flight at end of run) are
 * discarded, never sampled: the anatomy describes completed
 * deliveries only, which is what keeps conservation exact.
 */

#ifndef NIFDY_SIM_ANATOMY_HH
#define NIFDY_SIM_ANATOMY_HH

#include <array>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "sim/rng.hh"
#include "sim/stats.hh"
#include "sim/table.hh"
#include "sim/types.hh"

namespace nifdy
{

struct Packet;
class InvariantChecker;
class RunReport;
class Tracer;

/**
 * Where a sampled packet is spending the current cycle. Exactly one
 * cause is open per packet at any instant (the tiling invariant).
 * tools/lint.py checks that every member is documented in the
 * DESIGN.md section 8 table.
 */
enum class StallCause : int
{
    swSend,       //!< NIC-side staging between send() and first
                  //!< classification or injection
    ackWait,      //!< behind an earlier unacked packet to the same
                  //!< destination (per-destination FIFO order)
    optSlot,      //!< destination already holds an OPT entry
    optCap,       //!< all O OPT entries occupied (global cap)
    windowClosed, //!< bulk dialog window full / closing / wrong class
    injectStall,  //!< admissible but blocked on channel credits or
                  //!< injection round-robin
    routerArb,    //!< head-of-VC lost switch allocation in a router
    wireTransit,  //!< serialization, link latency, switch residency
    retxBackoff,  //!< dropped; waiting for the retransmission clone
    epochRecovery, //!< rejected by a stale/newer incarnation epoch
    reorderWait,  //!< buffered in the bulk reorder window (or the
                  //!< window drain blocked on a full arrival FIFO)
    swReceive,    //!< delivered, waiting for the processor to poll
    collDefer     //!< injection slot taken by a priority collective
                  //!< packet (coll.offload=nic)
};

inline constexpr int numStallCauses = 13;

/** Short slugs, metric/trace-name suffixes ("anatomy.stall.<slug>"). */
inline constexpr const char *stallCauseSlugs[numStallCauses] = {
    "swsend", "ackwait", "optslot",  "optcap", "window",  "inject",
    "arb",    "wire",    "retx",     "epoch",  "reorder", "swrecv",
    "coll",
};

/** Human-readable cause labels (blame tables). */
inline constexpr const char *stallCauseLabels[numStallCauses] = {
    "send staging",     "ack wait",        "OPT slot busy",
    "OPT cap",          "window closed",   "inject backpressure",
    "router arb loss",  "wire transit",    "retx backoff",
    "epoch recovery",   "reorder wait",    "receive poll",
    "collective defer",
};

/** Runtime knobs (CLI: anatomy.enabled / anatomy.sampleRate / ...). */
struct AnatomyConfig
{
    /** Master switch; off = no sink attached to the probe bus. */
    bool enabled = false;
    /** Fraction of packet lifecycles attributed, in [0, 1]. */
    double sampleRate = 1.0;
    /** Sampling hash seed; 0 = inherit the experiment seed. */
    std::uint64_t seed = 0;

    /** Fatal on out-of-range knobs. */
    void validate() const;
};

/**
 * The attribution sink. finish() closes the books: records still
 * open are discarded (counted, never sampled).
 */
class Anatomy
{
  public:
    /** Segments and live-cause counters render into @p tracer when
     * it is not null. */
    Anatomy(const AnatomyConfig &cfg, int numNodes, Tracer *tracer);
    Anatomy(const Anatomy &) = delete;
    Anatomy &operator=(const Anatomy &) = delete;

    //! @name Recording (called through the probe bus)
    //! @{
    /** App packet handed to the NIC: open a record in swSend. */
    void onSend(const Packet &pkt, Cycle now);
    /** Per-cycle NIC classification of a queued packet. */
    void onStall(const Packet &pkt, StallCause cause, Cycle now);
    /** Head flit entered the network: -> wireTransit. */
    void onInject(const Packet &pkt, Cycle now);
    /** Head-of-VC switch-allocation failure: -> routerArb. */
    void onArbLoss(const Packet &pkt, Cycle now);
    /** Successful router allocation: back to wireTransit. */
    void onHop(const Packet &pkt, Cycle now);
    /** Recoverable or terminal drop: -> retxBackoff (terminal drops
     * leave a record that finish() discards). */
    void onDrop(const Packet &pkt, Cycle now);
    /** Stale-incarnation reject: -> epochRecovery. */
    void onEpochReject(const Packet &pkt, Cycle now);
    /** Buffered in the bulk reorder window: -> reorderWait. */
    void onReorder(const Packet &pkt, Cycle now);
    /** Entered the arrival FIFO: -> swReceive. */
    void onDeliver(const Packet &pkt, Cycle now);
    /** Accepted by the processor: close and sample the record. */
    void onAccept(const Packet &pkt, Cycle now);
    //! @}

    /** Discard still-open records and stop recording. Idempotent. */
    void finish(Cycle now);

    //! @name Aggregates (completed deliveries only)
    //! @{
    /** Packets attributed end to end. */
    std::uint64_t packets() const { return packets_; }
    /** Records discarded without completing (drops, crashes,
     * in-flight at finish()). */
    std::uint64_t discarded() const { return discarded_; }
    /** Records still open (in-flight packets). */
    std::uint64_t openRecords() const { return recs_.size(); }
    /** Total cycles attributed to @p c across completed packets. */
    std::uint64_t totalCycles(StallCause c) const
    {
        return totals_[static_cast<int>(c)];
    }
    /** Sum of totalCycles over every cause. */
    std::uint64_t totalAttributed() const;
    /** Sum of end-to-end latencies; equals totalAttributed()
     * exactly (the conservation invariant). */
    std::uint64_t totalLatency() const { return e2eSum_; }
    /** Per-cause per-packet distribution (zeros included, so every
     * cause's count equals packets()). */
    const Distribution &dist(StallCause c) const
    {
        return dists_[static_cast<int>(c)];
    }
    /** End-to-end (send -> processor accept) latency. */
    const Distribution &e2e() const { return e2e_; }
    /** Per-source-node cause totals. */
    const std::array<std::uint64_t, numStallCauses> &
    nodeTotals(NodeId n) const
    {
        return nodeTotals_[static_cast<std::size_t>(n)];
    }
    std::uint64_t nodeLatency(NodeId n) const
    {
        return nodeLatency_[static_cast<std::size_t>(n)];
    }
    int numNodes() const { return static_cast<int>(nodeTotals_.size()); }
    //! @}

    //! @name Rendering
    //! @{
    /** Add the conservation block -- packets, discarded, latency and
     * per-cause cycles -- to @p rep as "anatomy.<scope>..." metrics;
     * @p scope is empty for a run report, "<tag>." for a bench's
     * per-configuration group. */
    void reportMetrics(RunReport &rep, const std::string &scope) const;
    /** Cause / cycles / share / per-packet-mean blame table. */
    Table blameTable(const std::string &title) const;
    /** Per-source-node cycles-by-cause table (outlier hunting). */
    Table nodeTable(const std::string &title) const;
    /** Scalar-vs-bulk per-cause split. */
    Table classTable(const std::string &title) const;
    //! @}

  private:
    struct Rec
    {
        Cycle start = 0;          //!< createdAt (send instant)
        Cycle last = 0;           //!< open segment's start
        StallCause cur = StallCause::swSend;
        std::array<std::uint64_t, numStallCauses> accum{};
        NodeId src = invalidNode;
        bool bulk = false;        //!< saw a bulk conversion
    };

    Rec *find(const Packet &pkt);
    void transition(Rec &r, const Packet &pkt, StallCause cause,
                    Cycle now);
    /** Close r.cur's open segment at @p now. */
    void closeSegment(Rec &r, Cycle now);

    AnatomyConfig cfg_;
    /** Lifecycles attributed, by root id (anatomy.sampleRate). */
    IdSampler sampler_;
    Tracer *tracer_;
    bool finished_ = false;

    std::unordered_map<std::uint64_t, Rec> recs_;
    std::array<std::uint64_t, numStallCauses> totals_{};
    std::array<Distribution, numStallCauses> dists_;
    std::array<std::array<Distribution, numStallCauses>, 2> classDists_;
    Distribution e2e_{"anatomy.e2e"};
    std::uint64_t e2eSum_ = 0;
    std::uint64_t packets_ = 0;
    std::uint64_t discarded_ = 0;
    std::vector<std::array<std::uint64_t, numStallCauses>> nodeTotals_;
    std::vector<std::uint64_t> nodePackets_;
    std::vector<std::uint64_t> nodeLatency_;
    /** Live packets per cause (feeds the trace counter track). */
    std::array<std::int64_t, numStallCauses> live_{};
};

/**
 * Aggregate conservation checker for the audit layer: at finish(),
 * the sum of per-cause totals must equal the sum of end-to-end
 * latencies exactly.
 */
std::unique_ptr<InvariantChecker>
makeAnatomyConservationChecker(const Anatomy *anatomy);

} // namespace nifdy

#endif // NIFDY_SIM_ANATOMY_HH
