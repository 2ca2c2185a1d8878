/**
 * @file
 * Packet-lifecycle tracer.
 *
 * Records per-packet events -- send, inject, OPT admit/defer, every
 * router hop, deliver, ack, retransmit, drop -- with cycle
 * timestamps and Section 6.2 retransmission provenance, and writes
 * them as Chrome-trace-event JSON (the "b"/"n"/"e" async form) that
 * loads directly in Perfetto. All events of one logical packet share
 * an async id: retransmission clones trace under the id of the
 * packet they re-send (cloneOf), so a lossy run shows one unbroken
 * chain per payload from first send to final ack.
 *
 * Cost model: the Tracer is a probe-bus sink (sim/probes.hh), so
 * while none is attached (the `trace.path` knob is empty) each event
 * costs the bus's one inlined test. When attached, per-packet
 * sampling (trace.sampleRate, keyed on a deterministic hash of the
 * packet's root id so whole lifecycles are kept or skipped together)
 * and a hard event budget (trace.maxEvents) bound both overhead and
 * memory.
 *
 * Event names form the taxonomy documented in DESIGN.md section 8;
 * tools/lint.py enforces the component.noun[.verb] convention and
 * taxonomy membership, and `tools/analyze.py trace` validates
 * emitted files in CI.
 */

#ifndef NIFDY_SIM_TRACE_HH
#define NIFDY_SIM_TRACE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/rng.hh"
#include "sim/types.hh"

namespace nifdy
{

struct Packet;

/** Event-name taxonomy (DESIGN.md section 8). */
namespace ev
{

inline constexpr const char *packetSend = "nic.packet.send";
inline constexpr const char *packetInject = "nic.packet.inject";
inline constexpr const char *packetDeliver = "nic.packet.deliver";
inline constexpr const char *packetDrop = "nic.packet.drop";
inline constexpr const char *packetRetransmit = "nic.packet.retransmit";
inline constexpr const char *ackIssue = "nic.ack.issue";
inline constexpr const char *optAdmit = "nifdy.opt.admit";
inline constexpr const char *optDefer = "nifdy.opt.defer";
inline constexpr const char *windowAdmit = "nifdy.window.admit";
inline constexpr const char *routerHop = "router.packet.hop";
inline constexpr const char *fabricDrop = "fabric.packet.drop";
inline constexpr const char *fabricCorrupt = "fabric.packet.corrupt";
inline constexpr const char *epochReject = "nic.epoch.reject";
inline constexpr const char *nodeCrash = "node.crash";
inline constexpr const char *nodeRestart = "node.restart";
inline constexpr const char *collEnter = "coll.enter";
inline constexpr const char *collExit = "coll.exit";
inline constexpr const char *collContribSend = "coll.contrib.send";
inline constexpr const char *collContribRetx = "coll.contrib.retx";
inline constexpr const char *collReleaseSend = "coll.release.send";
inline constexpr const char *collProbeSend = "coll.probe.send";
inline constexpr const char *collStatusSend = "coll.status.send";
inline constexpr const char *collPeerPrune = "coll.peer.prune";
inline constexpr const char *collDegrade = "coll.degrade";
inline constexpr const char *collEpochReject = "coll.epoch.reject";

} // namespace ev

/** Async chain id for one node's crash/restart lifecycle. Packet
 * root ids grow from 1; the high bit keeps the spaces disjoint. */
inline std::uint64_t
nodeChainId(NodeId node)
{
    return (std::uint64_t(1) << 62) |
           static_cast<std::uint64_t>(static_cast<std::uint32_t>(node));
}

/** Async chain id for one node's collective-engine lifecycle
 * (coll.* events). Bit 61 keeps it disjoint from both packet root
 * ids and nodeChainId's bit-62 space. */
inline std::uint64_t
collChainId(NodeId node)
{
    return (std::uint64_t(1) << 61) |
           static_cast<std::uint64_t>(static_cast<std::uint32_t>(node));
}

/** Runtime knobs (CLI: trace.path / trace.sampleRate / ...). */
struct TraceConfig
{
    /** Output file; empty disables tracing. */
    std::string path;
    /** Fraction of packet lifecycles recorded, in [0, 1]. */
    double sampleRate = 1.0;
    /** Hard cap on buffered events; further events are counted as
     * dropped but not recorded. Bounds tracer memory (~48 B/event). */
    std::uint64_t maxEvents = std::uint64_t(1) << 20;
    /** Sampling hash seed; 0 = inherit the experiment seed. */
    std::uint64_t seed = 0;

    /** Fatal on out-of-range knobs. */
    void validate() const;
};

/**
 * The event sink. Destroying it writes the file if close() has not
 * already.
 */
class Tracer
{
  public:
    explicit Tracer(const TraceConfig &cfg);
    ~Tracer();
    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    /**
     * Flush the buffered events to cfg.path as Chrome trace JSON and
     * stop recording. Idempotent; the destructor calls it. When
     * several Tracers in one process share a path, later ones get a
     * ".2", ".3", ... suffix before the extension so files are never
     * clobbered (path() reports the actual file written).
     */
    void close();

    /** The file this tracer writes (after suffix uniquification). */
    const std::string &path() const { return path_; }

    std::uint64_t eventsRecorded() const { return events_.size(); }
    std::uint64_t eventsDropped() const { return dropped_; }

    //! @name Recording (through the probe bus and the other sinks)
    //! @{
    /** Lifecycle event for a data packet; ack/ctrlOnly packets are
     * filtered out (their protocol effects are traced as
     * ev::ackIssue marks). @p track becomes the Chrome tid. */
    void packetEvent(const char *name, const Packet &pkt, Cycle now,
                     int track, const char *why = nullptr);
    /** Event attributed to a root packet id directly (used for
     * cumulative bulk acks, where the ack covers many packets). */
    void idEvent(const char *name, std::uint64_t rootId, Cycle now,
                 int track, const char *why = nullptr);
    /** One completed latency-anatomy segment [from, to) recorded as
     * an explicit "b"/"e" pair on @p rootId's async chain, so it
     * renders as a per-cause child slice under the packet's
     * lifecycle chain. Exempt from lifecycle framing (the name
     * carries the "anatomy." prefix `analyze.py trace` keys on). */
    void anatomySlice(const char *name, std::uint64_t rootId,
                      Cycle from, Cycle to, int track);
    /** Counter-track sample ("C" phase): @p value packets currently
     * attributed to the cause behind @p name. */
    void counterSample(const char *name, Cycle now,
                       std::int64_t value);
    //! @}

  private:
    struct Event
    {
        const char *name; //!< taxonomy constant (static storage)
        const char *why;  //!< optional reason literal, may be null
        std::uint64_t id; //!< root packet id (async chain id)
        Cycle ts;
        std::int32_t track;
        std::int32_t attempt;
        /** Explicit phase ('b'/'e'/'C'); 0 = async chain framing is
         * computed in close() as before. */
        char ph;
        /** Slice length in cycles, or the counter value. */
        std::int64_t value;
    };

    void record(const char *name, std::uint64_t rootId, Cycle now,
                int track, std::int32_t attempt, const char *why,
                char ph = 0, std::int64_t value = 0);

    TraceConfig cfg_;
    std::string path_;
    std::vector<Event> events_;
    std::uint64_t dropped_ = 0;
    /** Lifecycles kept, by root id (trace.sampleRate). */
    IdSampler sampler_;
    bool closed_ = false;
};

} // namespace nifdy

#endif // NIFDY_SIM_TRACE_HH
