/**
 * @file
 * Experiment harness: assembles a network, one NIC + processor +
 * message layer per node, and the workloads, exactly as the paper's
 * evaluation does. Provides the three standard NIC configurations
 * compared throughout Section 4 -- "none" (plain interface),
 * "buffers" (the same total buffering as NIFDY, no protocol), and
 * "nifdy" -- plus the Section 6.2 lossy variant, and the
 * per-topology best NIFDY parameters of Table 3.
 */

#ifndef NIFDY_HARNESS_EXPERIMENT_HH
#define NIFDY_HARNESS_EXPERIMENT_HH

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "coll/coll.hh"
#include "nic/nifdyparams.hh"
#include "nic/plainnic.hh"
#include "nic/retransmit.hh"
#include "proc/workload.hh"
#include "sim/anatomy.hh"
#include "sim/congestion.hh"
#include "sim/fault.hh"
#include "sim/metrics.hh"
#include "sim/profile.hh"
#include "sim/table.hh"
#include "sim/trace.hh"

namespace nifdy
{

class Config;
class JsonWriter;
class RunReport;

/** Which network interface each node gets. */
enum class NicKind
{
    none,    //!< plain minimal interface
    buffers, //!< NIFDY's buffer budget without the protocol
    nifdy,   //!< the NIFDY unit
    lossy    //!< NIFDY + Section 6.2 retransmission extension
};

const char *nicKindName(NicKind kind);

/** Does the bare topology already deliver packets in order? */
bool topologyInOrder(const std::string &topology);

/** Table-3 style best NIFDY parameters for each topology. */
NifdyConfig bestNifdyParams(const std::string &topology);

struct ExperimentConfig
{
    std::string topology = "fattree";
    int numNodes = 64;
    NicKind nicKind = NicKind::nifdy;
    /** NIFDY parameters; the Experiment uses bestNifdyParams()
     * instead unless nifdyExplicit is set. */
    NifdyConfig nifdy;
    bool nifdyExplicit = false;
    LossyConfig lossy;
    /** In-fabric fault injection (drops, corruption, link outages).
     * Probabilistic faults require nicKind == lossy. */
    FaultPlan fault;
    /** Endpoint fault injection: fail-stop crashes and restarts
     * with incarnation epochs (node.* knobs). */
    NodeFaultPlan nodeFault;
    /** Live peers reclaim protocol state (OPT entries, stalled bulk
     * dialogs) aimed at a silent peer after this many idle cycles;
     * 0 disables. Defaulted by experimentFromConfig() to 25000 when
     * a node-fault plan is active and the knob is unset. */
    Cycle nodeReclaim = 0;
    /** NIC-resident collectives (coll.* knobs): barrier offload and
     * the bcast/reduce engines. Off by default, and then the run is
     * byte-identical to pre-collective builds. */
    CollConfig coll;
    ProcParams proc;
    MessageParams msg;
    /** Let the software exploit in-order delivery when available. */
    bool exploitInOrder = true;
    /** Run with the invariant-audit layer attached (also enabled by
     * the NIFDY_AUDIT environment variable). */
    bool audit = false;
    /** Packet-lifecycle tracing (active when trace.path is set). */
    TraceConfig trace;
    /** Periodic metric snapshots (active when metrics.path is set). */
    MetricsConfig metrics;
    /** Latency anatomy: per-packet stall-cause attribution
     * (anatomy.* knobs; off by default and then cost-free). */
    AnatomyConfig anatomy;
    /** Congestion observatory: per-link stall maps, per-flow
     * progress, victim/aggressor episodes (congestion.* knobs; off
     * by default and then cost-free). */
    CongestionConfig congestion;
    /** Host-cost profiler: per-component host-time and idle-work
     * attribution (profile.* knobs; off by default and then one
     * pointer test per cycle). */
    ProfileConfig profile;
    Cycle barrierLatency = 100;
    Cycle watchdog = 2000000;
    std::uint64_t seed = 1;
    /** Extra topology knobs (dims etc.); numNodes/seed overwritten. */
    NetworkParams net;
};

class Experiment
{
  public:
    explicit Experiment(const ExperimentConfig &cfg);
    ~Experiment();
    Experiment(const Experiment &) = delete;
    Experiment &operator=(const Experiment &) = delete;

    Kernel &kernel() { return kernel_; }
    Network &network() { return *net_; }
    Barrier &barrier() { return *barrier_; }
    PacketPool &pool() { return pool_; }
    int numNodes() const { return cfg_.numNodes; }
    const ExperimentConfig &config() const { return cfg_; }
    const NifdyConfig &nifdyConfig() const { return nifdyCfg_; }

    Nic &nic(NodeId n) { return *nics_.at(n); }
    Processor &proc(NodeId n) { return *procs_.at(n); }
    MessageLayer &msg(NodeId n) { return *msgs_.at(n); }
    Workload *workload(NodeId n) { return workloads_.at(n).get(); }

    /** The message layer's effective delivery-order mode. */
    bool inOrderDelivery() const { return inOrder_; }

    /** The attached invariant audit (nullptr when disabled). */
    Audit *audit() { return audit_.get(); }

    /** The fault injector (nullptr when the plan is empty). */
    FaultInjector *faults() { return injector_.get(); }

    /** The endpoint-fault driver (nullptr when the plan is empty). */
    NodeFaultDriver *nodeFaults() { return nodeDriver_.get(); }

    /** Node @p n's NIC collective engine (nullptr unless
     * coll.offload is on). */
    CollEngine *collEngine(NodeId n)
    {
        return collEngines_.empty() ? nullptr
                                    : collEngines_.at(n).get();
    }

    /** Has node @p n crashed at least once during this run? */
    bool nodeCrashedEver(NodeId n) const
    {
        return crashedEver_.at(n);
    }

    std::uint64_t nodeCrashes() const { return nodeCrashes_; }
    std::uint64_t nodeRestarts() const { return nodeRestarts_; }

    /** The packet-lifecycle tracer (nullptr when disabled). */
    Tracer *tracer() { return tracer_.get(); }

    /** The latency-anatomy sink (nullptr when disabled). */
    Anatomy *anatomy() { return anatomy_.get(); }

    /** The congestion observatory (nullptr when disabled). */
    CongestionObserver *congestion() { return congestion_.get(); }

    /** The host-cost profiler (nullptr when disabled). */
    Profiler *profiler() { return profiler_.get(); }
    const Profiler *profiler() const { return profiler_.get(); }

    //! @name Dead-peer reporting (graceful degradation)
    //! @{
    /** (reporting node, dead peer) pairs across all NIFDY NICs. */
    std::vector<std::pair<NodeId, NodeId>> deadPeerPairs() const;
    int totalDeadPeers() const
    {
        return static_cast<int>(deadPeerPairs().size());
    }
    //! @}

    /** Install a workload on node @p n (takes ownership). */
    void setWorkload(NodeId n, std::unique_ptr<Workload> w);

    /** All workloads report done(). */
    bool allDone() const;

    /** Nothing in flight anywhere (tests). */
    bool drained() const;

    /** Run a fixed number of cycles; returns cycles executed. */
    Cycle runFor(Cycle cycles);

    /**
     * Run until allDone() or the cycle budget runs out. When peers
     * have been declared dead, the run also stops once no progress
     * has been made for a grace period (the remaining work is
     * unreachable) and logs a dead-peer report, so a partitioned
     * network terminates with a diagnosis instead of hanging in
     * drain detection.
     */
    Cycle runUntilDone(Cycle maxCycles);

    //! @name Aggregate delivery statistics (data packets)
    //! @{
    /** Cheap single-counter sums, fit for a per-cycle predicate. */
    std::uint64_t packetsDelivered() const;
    std::uint64_t wordsDelivered() const;
    std::uint64_t packetsSent() const;

    /**
     * Machine-wide run counters: every per-node NIC, processor and
     * collective-engine counter, summed once. The report, the stats
     * table, the metric rows and the benches all read these sums;
     * a family the run lacks (NIFDY or lossy NICs, collective
     * offload) stays zero.
     */
    struct Totals
    {
        //! @name Every NIC
        //! @{
        std::uint64_t packetsSent = 0;
        std::uint64_t packetsDelivered = 0;
        std::uint64_t wordsDelivered = 0;
        std::uint64_t arrivalsPending = 0;
        Distribution latency{"nic.latency"};
        //! @}
        //! @name NIFDY NICs (nic=nifdy and nic=lossy)
        //! @{
        std::uint64_t acksSent = 0;
        std::uint64_t acksPiggybacked = 0;
        std::uint64_t bulkGrants = 0;
        std::uint64_t bulkRejects = 0;
        std::uint64_t bulkPackets = 0;
        std::uint64_t optOccupancy = 0;
        std::uint64_t poolOccupancy = 0;
        std::uint64_t windowUnacked = 0;
        std::uint64_t epochRejects = 0;
        std::uint64_t dialogTeardowns = 0;
        std::uint64_t abandoned = 0;
        std::uint64_t deadPeers = 0; //!< (node, dead peer) pairs
        //! @}
        //! @name Lossy NICs (nic=lossy)
        //! @{
        std::uint64_t retransmissions = 0;
        std::uint64_t dropped = 0;        //!< receiver-side drops
        std::uint64_t corruptDropped = 0; //!< CRC discards
        std::uint64_t duplicates = 0;
        Distribution recovery{"lossy.recovery.latency"};
        //! @}
        //! @name Collective engines (coll.offload=nic)
        //! @{
        std::uint64_t collEntered = 0;
        std::uint64_t collCompleted = 0;
        std::uint64_t collAbandoned = 0;
        std::uint64_t collDegraded = 0;
        std::uint64_t collRetx = 0;
        std::uint64_t collPruned = 0;
        std::uint64_t collEpochRejects = 0;
        std::uint64_t collPackets = 0;
        std::uint64_t collProbes = 0;
        std::uint64_t collTombReplies = 0;
        std::uint64_t collEvictions = 0;
        std::uint64_t collOpen = 0;
        //! @}
        /** Busy processor cycles over every node. */
        std::uint64_t procBusy = 0;
    };

    /** Sum every counter of Totals in one pass over the nodes. */
    Totals totals() const;

    /**
     * One-line-per-metric run summary: delivery counts, latency,
     * protocol activity (acks, grants, retransmissions), fabric
     * utilization, and processor busy fraction.
     */
    Table statsTable() const { return statsTable(totals()); }

    /**
     * Aggregate packet latency merged across every NIC (the source
     * of the p50/p95/p99 estimates in reports and snapshots).
     */
    Distribution mergedLatency() const;

    /**
     * Fill @p rep with this run's machine-readable summary: config
     * echo, goodput, latency distribution with percentiles,
     * protocol/fault/retransmission accounting, and the stats table.
     */
    void fillReport(RunReport &rep) const;
    //! @}

  private:
    bool nifdyKind() const
    {
        return cfg_.nicKind == NicKind::nifdy ||
               cfg_.nicKind == NicKind::lossy;
    }

    Table statsTable(const Totals &tot) const;

    /** Metrics row writer: every gauge, then every distribution,
     * from one totals() pass at snapshot cycle @p now. */
    void writeMetrics(JsonWriter &w, Cycle now);

    /** NodeFaultDriver handler: crash or restart node @p n. */
    void onNodeFault(NodeId n, bool restart, Cycle now);

    ExperimentConfig cfg_;
    NifdyConfig nifdyCfg_;
    bool inOrder_ = false;
    Kernel kernel_;
    PacketPool pool_;
    std::unique_ptr<Network> net_;
    /** After net_: routers keep a raw pointer to the injector. */
    std::unique_ptr<FaultInjector> injector_;
    std::unique_ptr<Barrier> barrier_;
    std::vector<std::unique_ptr<Nic>> nics_;
    /** Downcast cache of nics_ for NIFDY kinds (nifdy and lossy). */
    std::vector<NifdyNic *> nifdyNics_;
    /** Downcast cache of nics_ when nicKind == lossy. */
    std::vector<LossyNifdyNic *> lossyNics_;
    /** Per-node NIC collective engines (empty unless coll.offload).
     * Teardown order vs nics_ is irrelevant: a NIC only touches its
     * engine inside step(). */
    std::vector<std::unique_ptr<CollEngine>> collEngines_;
    std::vector<std::unique_ptr<Processor>> procs_;
    std::vector<std::unique_ptr<MessageLayer>> msgs_;
    std::vector<std::unique_ptr<Workload>> workloads_;
    /** Endpoint-fault schedule executor (nullptr = empty plan). */
    std::unique_ptr<NodeFaultDriver> nodeDriver_;
    /** Per-node: crashed at least once (its workload is excused). */
    std::vector<bool> crashedEver_;
    bool anyCrashed_ = false;
    std::uint64_t nodeCrashes_ = 0;
    std::uint64_t nodeRestarts_ = 0;
    /** Observers on kernel_.probes() (nullptr when disabled). The
     * destructor closes them out (Probes::finish) and detaches them
     * all before any is freed. */
    std::unique_ptr<Profiler> profiler_;
    std::unique_ptr<Anatomy> anatomy_;
    std::unique_ptr<CongestionObserver> congestion_;
    std::unique_ptr<Tracer> tracer_;
    std::unique_ptr<Metrics> metrics_;
    /** Per-channel (cycle, flits) at the last metrics row, for the
     * interval utilization gauges. */
    std::vector<std::pair<Cycle, std::uint64_t>> utilMarks_;
    std::unique_ptr<Audit> audit_;
};

/**
 * Bind every experiment knob onto @p cfg, whose current values are
 * the listed defaults, so every experiment -- including lossy and
 * fault-injected ones -- is runnable without recompiling. The nifdy.*
 * defaults are bestNifdyParams() of the bound topology. Malformed
 * values and out-of-range knobs are fatal(); unknown keys are left to
 * the binary's closing Config::close() call.
 */
ExperimentConfig experimentFromConfig(const Config &conf,
                                      ExperimentConfig cfg = {});

/** Bind just the observer groups of @p cfg (trace.*, metrics.*,
 * anatomy.*, congestion.*, profile.*), as experimentFromConfig()
 * does; benches bind these and set the rest per run. */
void bindTelemetry(const Config &conf, ExperimentConfig &cfg);

/**
 * Machine-readable knob reference: one line per config key in the
 * form "name<TAB>default<TAB>doc" (run_experiment --list-knobs adds
 * its runner keys). Derived from experimentFromConfig()'s bindings;
 * a test checks that DESIGN.md documents every knob listed here.
 */
std::string experimentKnobList();

} // namespace nifdy

#endif // NIFDY_HARNESS_EXPERIMENT_HH
