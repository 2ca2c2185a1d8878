/**
 * @file
 * In-fabric fault injection (the robustness counterpart of the
 * Section 6.2 lossy extension).
 *
 * A FaultPlan describes what goes wrong inside the network: per-hop
 * packet drop and flit-corruption probabilities on internal links,
 * timed link-down windows (transient or permanent), and router
 * output-port failures (compiled to down windows on the attached
 * channel). Plans are parsed from the key=value Config/CLI layer
 * and validated up front, so a sweep never discovers a bad knob
 * halfway through.
 *
 * A FaultInjector applies a plan to one Network. Probabilistic
 * faults are injected at the router input-absorb point: dropping a
 * packet there lets the router return the input-buffer credit for
 * every swallowed flit, so the credit discipline survives the loss
 * (dropping inside a Channel would leak the downstream credits and
 * wedge the fabric). Corruption only marks the packet; the flits
 * keep flowing and the receiving NIC discards the packet on its CRC
 * check, exactly like real link-level corruption. Link-down windows
 * gate Channel::canPush(), and adaptive routers mask down output
 * ports from their candidate sets, so traffic reroutes around the
 * failure where the topology allows it.
 *
 * Determinism: every random decision flows through per-router Rng
 * streams seeded from (plan seed, router id), so two runs under the
 * same plan and seed inject byte-identical fault sequences.
 */

#ifndef NIFDY_SIM_FAULT_HH
#define NIFDY_SIM_FAULT_HH

#include <functional>
#include <map>
#include <string>
#include <unordered_set>
#include <vector>

#include "sim/kernel.hh"
#include "sim/rng.hh"
#include "sim/types.hh"

namespace nifdy
{

class Config;
class Channel;
class Network;
struct Flit;
struct Packet;
class PacketPool;

/** One link outage: internal link @p link is down in [from, until).
 * until == 0 means permanently down from @p from on. */
struct LinkFault
{
    int link = -1;
    Cycle from = 0;
    Cycle until = 0;
};

/** One router output-port failure, same window semantics. */
struct PortFault
{
    int router = -1;
    int port = -1;
    Cycle from = 0;
    Cycle until = 0;
};

/**
 * Everything that will go wrong inside the fabric during one run.
 * Probabilities are per packet per internal hop, so the end-to-end
 * loss rate grows with path length.
 */
struct FaultPlan
{
    /** Probability an internal hop swallows a whole packet. */
    double dropProb = 0.0;
    /** Probability an internal hop corrupts a packet (discarded by
     * the receiving NIC's CRC check). */
    double corruptProb = 0.0;
    /** Stop dropping/corrupting after this many packets have been
     * hit (-1 = unlimited). Deterministic bounded faults for tests. */
    int maxDrops = -1;

    /** Explicit link outages (link = internal-channel index, in
     * network construction order). */
    std::vector<LinkFault> linkDown;
    /** Router output-port failures. */
    std::vector<PortFault> portDown;

    /** Additionally pick this many random internal links... */
    int randomDownLinks = 0;
    /** ...down from this cycle... */
    Cycle randomDownFrom = 0;
    /** ...for this many cycles (0 = permanently). */
    Cycle randomDownFor = 0;

    /** Fault RNG seed; 0 = derive from the experiment seed. */
    std::uint64_t seed = 0;

    /** Does this plan inject anything at all? */
    bool active() const;

    /** Fatal on out-of-range knobs (probabilities, negative ids). */
    void validate() const;

    /**
     * Bind the fault.* keys of @p conf:
     *   fault.dropProb fault.corruptProb fault.maxDrops fault.seed
     *   fault.linkDown=LINK@FROM[+DUR][,...]
     *   fault.portDown=ROUTER.PORT@FROM[+DUR][,...]
     *   fault.downLinks fault.downFrom fault.downFor
     * Absent keys keep their defaults (an empty plan).
     */
    static FaultPlan fromConfig(const Config &conf);

    /** One-line human-readable summary. */
    std::string toString() const;
};

/** One endpoint failure: @p node fail-stops at @p crashAt; when
 * restartAt != 0 it comes back at restartAt with cold NIC state and
 * a bumped incarnation epoch. restartAt == 0 means it stays dead. */
struct NodeFault
{
    NodeId node = invalidNode;
    Cycle crashAt = 0;
    Cycle restartAt = 0;
};

/**
 * The endpoint fault domain: which nodes fail-stop during one run,
 * and whether/when they restart. The fabric counterpart above keeps
 * links honest; this plan kills whole endpoints. Explicit schedules
 * come from node.crash specs; random schedules pick distinct victims
 * deterministically from (node.seed, experiment seed).
 */
struct NodeFaultPlan
{
    /** Explicit crash schedule (node.crash=NODE@FROM[+DUR], DUR
     * cycles of downtime before the restart; no +DUR = permanent). */
    std::vector<NodeFault> crashes;

    /** Additionally crash this many distinct random nodes... */
    int randomCrashes = 0;
    /** ...at cycles drawn uniformly from [crashFrom, crashFrom +
     * crashSpan)... */
    Cycle randomCrashFrom = 0;
    Cycle randomCrashSpan = 0;
    /** ...each restarting after this much downtime (0 = stay dead). */
    Cycle randomRestartAfter = 0;

    /** Endpoint-fault RNG seed; 0 = derive from the experiment seed. */
    std::uint64_t seed = 0;

    /** Does this plan crash anyone at all? */
    bool active() const;

    /** Fatal on malformed schedules (double crash of one node,
     * restart before crash, random crashes without a span). */
    void validate() const;

    /**
     * Bind the node.* keys of @p conf:
     *   node.crash=NODE@FROM[+DUR][,...]
     *   node.randomCrashes node.crashFrom node.crashSpan
     *   node.restartAfter node.seed
     * Absent keys keep their defaults (an empty plan).
     */
    static NodeFaultPlan fromConfig(const Config &conf);

    /**
     * Resolve the plan against @p numNodes nodes: bounds-check the
     * explicit schedule, draw the random one, and return the full
     * crash list sorted by crash cycle. Deterministic for a given
     * (plan, effective seed).
     */
    std::vector<NodeFault> compile(int numNodes,
                                   std::uint64_t experimentSeed) const;

    /** One-line human-readable summary. */
    std::string toString() const;
};

/**
 * Executes a compiled NodeFaultPlan: a Steppable that fires the
 * crash/restart handler at the scheduled cycles. The handler (wired
 * by the harness) owns the actual teardown -- NIC crash/restart,
 * processor offlining, barrier excusal, audit/trace/metric events --
 * so the driver stays free of component knowledge.
 */
class NodeFaultDriver : public Steppable
{
  public:
    /** Called once per event; @p restart false = crash, true =
     * restart of a previously crashed node. */
    using Handler = std::function<void(NodeId, bool, Cycle)>;

    NodeFaultDriver(const NodeFaultPlan &plan, int numNodes,
                    std::uint64_t experimentSeed, Handler handler);

    void step(Cycle now) override;

    const char *profileClass() const override
    {
        return "fault-driver";
    }

    /** The resolved schedule (sorted by crash cycle). */
    const std::vector<NodeFault> &schedule() const { return schedule_; }

    /** Every scheduled event has fired. */
    bool exhausted() const { return firedAll_; }

  private:
    struct Event
    {
        Cycle at = 0;
        NodeId node = invalidNode;
        bool restart = false;
    };

    std::vector<NodeFault> schedule_;
    std::vector<Event> events_; //!< sorted by cycle
    std::size_t next_ = 0;
    Handler handler_;
    bool firedAll_ = false;
};

/**
 * Applies one FaultPlan to one Network. Construct it after the
 * network, call attachNetwork() once, and keep it alive for the
 * whole run (routers hold a raw pointer back to it).
 */
class FaultInjector
{
  public:
    /** @p experimentSeed is used when the plan leaves seed == 0. */
    FaultInjector(const FaultPlan &plan, std::uint64_t experimentSeed,
                  PacketPool &pool);

    /**
     * Resolve the plan against @p net: compile link/port outages to
     * channel down windows and register this injector with every
     * router when probabilistic faults are enabled.
     */
    void attachNetwork(Network &net);

    /** Fire observer events on @p probes (an experiment's bus). */
    void setProbes(const Probes *probes) { probes_ = probes; }

    /**
     * Router input-side hook, called for every flit popped from an
     * incoming channel before it is buffered. Returns true when the
     * injector swallowed the flit (the router must return the input
     * credit and forget the flit); may instead mark the packet
     * corrupted and let it pass.
     */
    bool filterArrival(int routerId, Channel *ch, const Flit &flit,
                       Cycle now);

    //! @name Fault statistics
    //! @{
    std::uint64_t packetsDroppedInFabric() const { return pktsDropped_; }
    std::uint64_t flitsDroppedInFabric() const { return flitsDropped_; }
    std::uint64_t packetsCorrupted() const { return pktsCorrupted_; }
    int linksDowned() const { return linksDowned_; }
    //! @}

    const FaultPlan &plan() const { return plan_; }
    std::uint64_t seed() const { return seed_; }

  private:
    /** Per-(channel, VC) wormhole kill state: which packet's flits
     * are being swallowed until its tail passes. */
    using KillKey = std::pair<const Channel *, int>;

    void finishKill(Packet *pkt, int routerId, Cycle now);
    bool budgetLeft() const;

    FaultPlan plan_;
    std::uint64_t seed_;
    PacketPool &pool_;
    const Probes *probes_ = &noProbes;
    std::vector<Rng> routerRng_;
    std::unordered_set<const Channel *> internal_; // nifdy:pointer-ok(membership-only filter, never iterated or ordered)
    std::map<KillKey, Packet *> killing_; // nifdy:pointer-ok(keyed lookup/erase only, never iterated; order never observed)

    std::uint64_t pktsDropped_ = 0;
    std::uint64_t flitsDropped_ = 0;
    std::uint64_t pktsCorrupted_ = 0;
    int linksDowned_ = 0;
};

} // namespace nifdy

#endif // NIFDY_SIM_FAULT_HH
