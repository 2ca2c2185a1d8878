/**
 * @file
 * Simulator-wide invariant-audit layer.
 *
 * NIFDY's correctness claims are invariants: at most one outstanding
 * scalar packet per destination (and at most O overall) in the OPT,
 * bulk windows bounded by W with sequence numbers inside seqSpace(),
 * credit-bounded buffer occupancy everywhere, and in-order delivery
 * per (source, destination) even over adaptive networks. The audit
 * layer checks them continuously instead of only at end of run: an
 * Audit object is a registry of InvariantChecker objects, attached
 * to an experiment's probe bus (sim/probes.hh). The bus feeds it the
 * lifecycle events of PacketPool, Router, FaultInjector, the NICs
 * and the collective engines, and its end-of-cycle slot runs the
 * polled checks once per cycle.
 *
 * Cost model: while no Audit is attached, each event costs the bus's
 * one inlined test. An Audit is attached by the `audit` experiment
 * knob or the NIFDY_AUDIT=1 environment variable.
 *
 * On a violation the offending checker panics with the full
 * provenance trail of the packet involved (alloc, send, inject,
 * every router hop, delivery, consumption, release).
 */

#ifndef NIFDY_SIM_AUDIT_HH
#define NIFDY_SIM_AUDIT_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/types.hh"

namespace nifdy
{

struct Packet;
class Channel;
class Nic;
class Processor;
class Router;
class Audit;

/**
 * One continuously checked invariant. Subclasses override the event
 * hooks they care about and/or endCycle() for polled checks over the
 * components the owning Audit watches. Violations are reported with
 * fail(), which panics with the packet's provenance trail.
 */
class InvariantChecker
{
  public:
    virtual ~InvariantChecker() = default;

    /** Short identifier, quoted in violation reports. */
    virtual const char *name() const = 0;

    /** Polled check, run once per cycle after every component. */
    virtual void endCycle(Cycle now);

    /** End-of-run check (call after the simulation has drained). */
    virtual void finish();

    //! @name Event hooks (defaults do nothing)
    //! @{
    virtual void onAlloc(const Packet &pkt);
    virtual void onSend(const Packet &pkt, NodeId node);
    virtual void onInject(const Packet &pkt, NodeId node);
    virtual void onHop(const Packet &pkt, int routerId);
    virtual void onDeliver(const Packet &pkt, NodeId node);
    virtual void onConsume(const Packet &pkt, NodeId node,
                           const char *why);
    virtual void onDrop(const Packet &pkt, NodeId node,
                        const char *why);
    /**
     * A fault injector swallowed the packet inside the fabric.
     * Default: forwards to onDrop() with node = invalidNode, so
     * lifecycle conservation treats the injected loss as a
     * legitimately terminal event.
     */
    virtual void onFabricDrop(const Packet &pkt, int routerId,
                              const char *why);
    /** A fault injector corrupted the packet at @p routerId. */
    virtual void onCorrupt(const Packet &pkt, int routerId);
    /** A NIC retransmitted: @p pkt is the clone (cloneOf/attempt
     * carry its provenance). */
    virtual void onRetransmit(const Packet &pkt, NodeId node);
    virtual void onRelease(const Packet &pkt);
    /** Node @p node fail-stopped at cycle @p now. */
    virtual void onNodeCrash(NodeId node, Cycle now);
    /** Node @p node came back cold with incarnation @p epoch. */
    virtual void onNodeRestart(NodeId node, std::uint32_t epoch,
                               Cycle now);
    //! @}

    /** The Audit this checker is registered with (set on add()). */
    Audit *audit() const { return audit_; }

  protected:
    /** Report a violation involving @p pkt; never returns. */
    [[noreturn]] void fail(const Packet &pkt,
                           const std::string &msg) const;
    /** Report a violation with no single packet involved. */
    [[noreturn]] void fail(const std::string &msg) const;

  private:
    friend class Audit;
    Audit *audit_ = nullptr;
};

/**
 * The audit registry: owns the checkers, fans simulation events out
 * to them, keeps per-packet provenance trails, and knows which
 * components (NICs, routers, channels) the polled checks inspect.
 */
class Audit
{
  public:
    Audit();
    ~Audit();
    Audit(const Audit &) = delete;
    Audit &operator=(const Audit &) = delete;

    /** True when the NIFDY_AUDIT environment variable enables
     * auditing at run time (value not "0"/"off"/""). */
    static bool envEnabled();

    /** Register a checker (takes ownership). */
    void add(std::unique_ptr<InvariantChecker> checker);

    /**
     * Install the standard checker set: packet lifecycle, OPT/bulk
     * discipline, capacity, fault and epoch discipline, the sleep
     * discipline of NICs and processors, and (when @p expectInOrder)
     * per (src, dst) delivery ordering.
     */
    void installStandardCheckers(bool expectInOrder);

    //! @name Components inspected by polled checks
    //! @{
    struct WatchedChannel
    {
        Channel *ch;
        int capacityFlits; //!< 0 = use the channel's own capacity
    };

    void watchNic(Nic *nic);
    void watchProcessor(Processor *proc);
    void watchRouter(Router *router);
    void watchChannel(Channel *ch, int capacityFlits = 0);

    const std::vector<Nic *> &nics() const { return nics_; }
    const std::vector<Processor *> &processors() const
    {
        return processors_;
    }
    const std::vector<Router *> &routers() const { return routers_; }
    const std::vector<WatchedChannel> &channels() const
    {
        return channels_;
    }
    //! @}

    //! @name Event fan-out (called through the probe bus)
    //! @{
    void alloc(const Packet &pkt);
    void send(const Packet &pkt, NodeId node);
    void inject(const Packet &pkt, NodeId node);
    void hop(const Packet &pkt, int routerId);
    void deliver(const Packet &pkt, NodeId node);
    void consume(const Packet &pkt, NodeId node, const char *why);
    void drop(const Packet &pkt, NodeId node, const char *why);
    void fabricDrop(const Packet &pkt, int routerId, const char *why);
    void corrupt(const Packet &pkt, int routerId);
    void retransmit(const Packet &pkt, NodeId node);
    void release(const Packet &pkt);
    void nodeCrash(NodeId node, Cycle now);
    void nodeRestart(NodeId node, std::uint32_t epoch, Cycle now);
    //! @}

    /**
     * Declare that fault injection is active this run. While false
     * (the default) the fault-discipline checker treats any in-fabric
     * drop or corruption as a simulator bug -- a lossless fabric must
     * not lose packets.
     */
    void setExpectFaults(bool expect) { expectFaults_ = expect; }
    bool expectFaults() const { return expectFaults_; }

    /** Declare that an endpoint fault plan is active this run. While
     * false, the epoch-discipline checker treats any node crash or
     * restart as a simulator bug. */
    void setExpectNodeFaults(bool expect) { expectNodeFaults_ = expect; }
    bool expectNodeFaults() const { return expectNodeFaults_; }

    //! @name Fault-aware accounting
    //! @{
    std::uint64_t fabricDrops() const { return fabricDrops_; }
    std::uint64_t corruptions() const { return corruptions_; }
    std::uint64_t retransmits() const { return retransmits_; }
    std::uint64_t nodeCrashes() const { return nodeCrashes_; }
    std::uint64_t nodeRestarts() const { return nodeRestarts_; }
    //! @}

    /** Run every checker's polled check; Probes::endCycle calls this
     * after all components have stepped cycle @p now. */
    void endCycle(Cycle now);

    /** Run end-of-run checks (call once the simulation drained). */
    void finish();

    /** Render the recorded provenance trail of packet @p pktId. */
    std::string provenance(std::uint64_t pktId) const;

    /** Events dispatched since construction (tests/reporting). */
    std::uint64_t eventsSeen() const { return eventsSeen_; }

  private:
    void record(const Packet &pkt, std::string event);

    std::vector<std::unique_ptr<InvariantChecker>> checkers_;
    std::vector<Nic *> nics_;
    std::vector<Processor *> processors_;
    std::vector<Router *> routers_;
    std::vector<WatchedChannel> channels_;
    /** Provenance trails keyed by packet id (pruned on release). */
    struct Trail;
    std::unique_ptr<Trail> trails_;
    std::uint64_t eventsSeen_ = 0;
    bool expectFaults_ = false;
    bool expectNodeFaults_ = false;
    std::uint64_t fabricDrops_ = 0;
    std::uint64_t corruptions_ = 0;
    std::uint64_t retransmits_ = 0;
    std::uint64_t nodeCrashes_ = 0;
    std::uint64_t nodeRestarts_ = 0;
};

} // namespace nifdy

#endif // NIFDY_SIM_AUDIT_HH
