/**
 * @file
 * Congestion observatory: per-link stall maps, per-flow progress
 * tracking, and victim/aggressor attribution.
 *
 * The CongestionObserver is a probe-bus sink whose step() runs in
 * the bus's end-of-cycle slot, after every component has stepped,
 * so it sees each cycle's final link state. Per link it tiles every
 * observed cycle into exactly one of three states -- busy (the
 * serializer is occupied at this cycle), stalled (idle, but some
 * upstream component wanted to push and was refused: no credits,
 * serializer contention earlier in the cycle, or a store-and-forward
 * tail wait), or idle (no demand) -- giving the per-window
 * conservation invariant
 *
 *     busy + idle + stalled == window length
 *
 * checked exactly at every window close (panic on violation) and, in
 * cumulative form (busy + idle + stalled == cyclesObserved, per
 * link), by the audit layer's congestion-conservation checker every
 * cycle.
 *
 * On top of the window accounting sits an online hysteresis detector:
 * a link opens a named congestion *episode* when its window stall
 * fraction reaches congestion.onFrac and closes it when the fraction
 * falls below congestion.offFrac. While an episode is open, each
 * flow's flit contribution across the link is accumulated; at close
 * the flows are classified -- *aggressors* hold at least
 * congestion.aggressorShare of the episode's flits, *victims* are
 * minor contributors whose end-to-end slowdown (mean delivered
 * latency over the flow's own minimum-latency isolation baseline)
 * is at least congestion.victimSlowdown.
 *
 * Cost model: the observer is a probe-bus sink (sim/probes.hh), so
 * while none is attached (congestion.enabled defaults to off) each
 * event costs the bus's one inlined test, and congestion-off runs
 * produce byte-identical reports. When attached, the hooks are
 * NIFDY_HOT and allocation-free after warmup: the per-(link,flow)
 * window accumulators are zeroed rather than cleared so their keys
 * persist, and episode flow lists are only materialized at the
 * (rare) episode-close event.
 */

#ifndef NIFDY_SIM_CONGESTION_HH
#define NIFDY_SIM_CONGESTION_HH

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/table.hh"
#include "sim/types.hh"

namespace nifdy
{

struct Packet;
struct Flit;
class Channel;
class Network;
class InvariantChecker;
class RunReport;
class Tracer;

/** Runtime knobs (CLI: congestion.enabled / congestion.window / ...). */
struct CongestionConfig
{
    /** Master switch; off = no sink attached to the probe bus. */
    bool enabled = false;
    /** Accounting window length in cycles. */
    Cycle window = 1024;
    /** Episode opens when a window's stall fraction >= onFrac. */
    double onFrac = 0.5;
    /** Episode closes when a window's stall fraction < offFrac. */
    double offFrac = 0.25;
    /** Aggressor threshold: share of an episode's flits. */
    double aggressorShare = 0.25;
    /** Victim threshold: mean latency over isolation baseline. */
    double victimSlowdown = 2.0;

    /** Fatal on out-of-range knobs. */
    void validate() const;
};

/** Async-id space for congestion episode slices (bit 60 | link),
 * disjoint from packet ids, node chains (bit 62) and collective
 * chains (bit 61). */
inline std::uint64_t
congestionChainId(int link)
{
    return (std::uint64_t(1) << 60) |
           static_cast<std::uint64_t>(static_cast<std::uint32_t>(link));
}

/**
 * One closed (or still-open) congestion episode on a link. Flow
 * shares are materialized and classified at close, sorted by flit
 * contribution descending (ties by (src,dst) ascending) so output is
 * deterministic despite unordered accumulation.
 */
struct CongestionEpisode
{
    int link = -1;           //!< index into the observer's link table
    Cycle open = 0;          //!< first cycle of the opening window
    Cycle close = 0;         //!< one past the last congested cycle
    int windows = 0;         //!< accounting windows spanned
    double peakStallFrac = 0;
    std::uint64_t totalFlits = 0; //!< data flits crossing while open

    struct Share
    {
        NodeId src = invalidNode;
        NodeId dst = invalidNode;
        std::uint64_t flits = 0;
        double share = 0;     //!< flits / totalFlits
        double slowdown = 0;  //!< flow slowdown at close time
        bool aggressor = false;
        bool victim = false;
    };
    std::vector<Share> shares;

    bool closed() const { return close != 0; }
};

/**
 * The observatory sink. finish() closes still-open episodes and
 * stops recording.
 */
class CongestionObserver
{
  public:
    /** Cumulative and current-window accounting for one link. */
    struct LinkStats
    {
        std::uint64_t busy = 0;    //!< serializer occupied
        std::uint64_t idle = 0;    //!< no demand
        std::uint64_t stalled = 0; //!< demand refused (credit/arb/tail)
        std::uint64_t winBusy = 0;
        std::uint64_t winIdle = 0;
        std::uint64_t winStalled = 0;
        std::uint64_t reqFlits = 0;   //!< request-class flits pushed
        std::uint64_t replyFlits = 0; //!< reply-class flits pushed
        std::uint64_t winReqFlits = 0;
        std::uint64_t winReplyFlits = 0;
        int highWater = 0;  //!< occupancy high-water (flits in flight)
        int episodes = 0;   //!< episodes opened on this link
        int openEpisode = -1; //!< index into episodes(), -1 = calm
    };

    /** Progress accounting for one (src,dst) flow (data packets
     * only; acks and control-only packets are never tracked). */
    struct FlowStats
    {
        NodeId src = invalidNode;
        NodeId dst = invalidNode;
        std::uint64_t injected = 0;  //!< injections incl. retx clones
        std::uint64_t delivered = 0; //!< packets into the arrival FIFO
        std::uint64_t deliveredFlits = 0;
        /** injected - delivered: in the fabric, or lost for good on
         * a NIC without retransmission. */
        std::int64_t inflight = 0;
        std::uint64_t latSum = 0;     //!< sum of delivery latencies
        Cycle latMin = neverCycle;    //!< isolation baseline estimate
        Cycle firstInject = neverCycle;
        Cycle lastDeliver = 0;
        int aggressorEpisodes = 0;
        int victimEpisodes = 0;

        double meanLatency() const
        {
            return delivered ? double(latSum) / double(delivered) : 0;
        }
        /** Mean latency over the flow's own best-case (minimum)
         * delivery latency: a deterministic, self-calibrating
         * isolation-baseline estimate. */
        double slowdown() const
        {
            return (delivered && latMin > 0)
                       ? meanLatency() / double(latMin)
                       : 0;
        }
        /** Completion slope: delivered packets per kilocycle of the
         * flow's active span. */
        double slope() const
        {
            if (!delivered || firstInject == neverCycle ||
                lastDeliver <= firstInject)
                return 0;
            return 1000.0 * double(delivered) /
                   double(lastDeliver - firstInject);
        }
    };

    /** Episode slices and the congested-links counter render into
     * @p tracer when one is given. */
    CongestionObserver(const CongestionConfig &cfg, int numNodes,
                       Tracer *tracer = nullptr);
    CongestionObserver(const CongestionObserver &) = delete;
    CongestionObserver &operator=(const CongestionObserver &) = delete;

    /** Enumerate @p net's channels: inject/eject ports get
     * "inject<n>"/"eject<n>" labels, fabric links "internal<i>". */
    void attach(Network &net);
    /** Test seam: observe an explicit channel list. */
    void attachChannels(const std::vector<Channel *> &channels,
                        const std::vector<std::string> &labels,
                        int flitBytes);

    /** Per-cycle link-state tiling; runs after every component
     * (Probes::endCycle). */
    void step(Cycle now);

    //! @name Recording (called through the probe bus)
    //! @{
    /** A component wanted to push on @p ch this cycle and could not
     * (no credits, serializer busy, or a SAF tail wait). */
    void onLinkStall(const Channel *ch, Cycle now);
    /** A flit started serializing on @p ch. */
    void onLinkFlit(const Channel *ch, const Flit &flit, Cycle now);
    /** Head flit of a data packet entered the network. */
    void onInject(const Packet &pkt, Cycle now);
    /** Data packet entered the destination's arrival FIFO. */
    void onDeliver(const Packet &pkt, Cycle now);
    //! @}

    /** Close still-open episodes at @p now and stop recording.
     * Idempotent. */
    void finish(Cycle now);

    //! @name Aggregates
    //! @{
    int numLinks() const { return static_cast<int>(links_.size()); }
    const LinkStats &link(int i) const
    {
        return links_[static_cast<std::size_t>(i)];
    }
    const std::string &linkLabel(int i) const
    {
        return labels_[static_cast<std::size_t>(i)];
    }
    Cycle cyclesObserved() const { return cyclesObserved_; }
    std::uint64_t windowsClosed() const { return windowsClosed_; }
    const std::vector<CongestionEpisode> &episodes() const
    {
        return episodes_;
    }
    std::uint64_t episodesOpened() const { return episodesOpened_; }
    std::uint64_t episodesClosed() const { return episodesClosed_; }
    int openEpisodes() const { return openEpisodes_; }
    /** Flow table lookup; nullptr when the flow was never seen. */
    const FlowStats *flow(NodeId src, NodeId dst) const;
    std::size_t numFlows() const { return flows_.size(); }
    /** Distinct flows classified as aggressor/victim in >= 1
     * episode. */
    int aggressorFlows() const;
    int victimFlows() const;
    double maxSlowdown() const;
    std::uint64_t totalBusy() const;
    std::uint64_t totalIdle() const;
    std::uint64_t totalStalled() const;
    /** Link with the most stalled cycles (-1 when no links). */
    int hottestLink() const;
    //! @}

    //! @name Rendering
    //! @{
    /** Add the link-tiling and flow-verdict totals to @p rep as
     * "congestion.<scope>..." metrics; @p scope is empty for a run
     * report, "<tag>." for a bench's per-configuration group. Call
     * finish() first so open episodes carry final verdicts. */
    void reportMetrics(RunReport &rep, const std::string &scope) const;
    /** Per-link stall map (links that saw traffic or stalls). */
    Table linkTable(const std::string &title) const;
    /** Ranked flow progress/slowdown table (worst @p maxRows). */
    Table flowTable(const std::string &title,
                    std::size_t maxRows = 32) const;
    /** Episode log with aggressor/victim lists. */
    Table episodeTable(const std::string &title) const;
    //! @}

  private:
    static std::uint64_t flowKey(NodeId src, NodeId dst)
    {
        return (static_cast<std::uint64_t>(
                    static_cast<std::uint32_t>(src))
                << 32) |
               static_cast<std::uint32_t>(dst);
    }
    static std::uint64_t linkFlowKey(int link, NodeId src, NodeId dst)
    {
        return (static_cast<std::uint64_t>(
                    static_cast<std::uint32_t>(link))
                << 32) |
               (static_cast<std::uint64_t>(
                    static_cast<std::uint16_t>(src))
                << 16) |
               static_cast<std::uint16_t>(dst);
    }

    FlowStats &flowFor(const Packet &pkt);
    void closeWindow(Cycle now);
    void openEpisode(int link, Cycle winStart);
    void closeEpisode(int link, Cycle end);
    void emitCongestedCounter(Cycle now);

    CongestionConfig cfg_;
    Tracer *tracer_;
    bool finished_ = false;
    int flitBytes_ = bytesPerWord;

    std::vector<Channel *> channels_;
    std::vector<std::string> labels_;
    std::vector<LinkStats> links_;
    /** Set by onLinkStall, consumed and cleared by step(). */
    std::vector<std::uint8_t> stallFlag_;
    std::unordered_map<const Channel *, int> linkIndex_; // nifdy:pointer-ok(keyed lookup only, never iterated; order never observed)

    std::unordered_map<std::uint64_t, FlowStats> flows_;

    /** Per-(link,flow) flit accumulators. Values are zeroed at
     * window close / episode close; keys persist so the steady state
     * never allocates. */
    struct LinkFlowAcc
    {
        std::uint64_t winFlits = 0; //!< current window
        std::uint64_t epFlits = 0;  //!< open episode on this link
    };
    std::unordered_map<std::uint64_t, LinkFlowAcc> linkFlows_;

    std::vector<CongestionEpisode> episodes_;
    Cycle cyclesObserved_ = 0;
    std::uint64_t windowsClosed_ = 0;
    std::uint64_t episodesOpened_ = 0;
    std::uint64_t episodesClosed_ = 0;
    int openEpisodes_ = 0;
};

/**
 * Cumulative conservation checker for the audit layer: per link, the
 * busy/idle/stalled tiling must sum to the cycles observed at every
 * cycle boundary and at finish.
 */
std::unique_ptr<InvariantChecker>
makeCongestionConservationChecker(const CongestionObserver *obs);

} // namespace nifdy

#endif // NIFDY_SIM_CONGESTION_HH
