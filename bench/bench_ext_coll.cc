/**
 * @file
 * Collective offload evaluation: barrier latency scaling and crash
 * resilience. Part one sweeps machine size with a pure-barrier
 * workload (no data traffic) and compares the software message-tree
 * barrier against the NIC-resident combining tree: cycles per
 * barrier, collective packets on the wire, and the offload speedup.
 * The offload should scale with tree depth (log_k N hops of NIC
 * latency) while the software tree additionally pays the full
 * processor send/receive cost structure at every level.
 *
 * Part two crashes nodes mid-run under the offloaded engine (one
 * permanent fail-stop, one crash + restart) and reports the recovery
 * machinery's activity: retransmissions, probes, pruned subtrees,
 * and degraded completions. Survivors must finish every phase.
 *
 * Args: phases=32 seed=1 topology=fattree arity=4 crashNodes=64
 *       csv=false help=false (no nodes=: the sweep's machine sizes
 *       are fixed, and crashNodes= sizes the crash runs)
 */

#include <stdexcept>

#include "benchutil.hh"
#include "sim/fault.hh"
#include "traffic/collective.hh"

using namespace nifdy;

namespace
{

struct CollRun
{
    Cycle ran = 0;
    bool done = false;
    Experiment::Totals tot;
    std::uint64_t completedPhases = 0;
};

ExperimentConfig
collConfig(const std::string &topology, int nodes, int arity, bool offload,
           std::uint64_t seed, const std::vector<NodeFault> &crashes)
{
    ExperimentConfig cfg;
    cfg.topology = topology;
    cfg.numNodes = nodes;
    cfg.nicKind = NicKind::nifdy;
    cfg.seed = seed;
    cfg.coll.offload = offload;
    cfg.coll.arity = arity;
    if (!crashes.empty()) {
        // Pull recovery timers in so the crash bench measures the
        // machinery, not the (conservatively long) default timers.
        cfg.coll.timeout = 300;
        cfg.coll.maxTimeout = 2400;
        cfg.coll.maxRetries = 4;
        cfg.coll.probeTimeout = 600;
        cfg.coll.maxProbes = 3;
        cfg.nodeFault.crashes = crashes;
    }
    return cfg;
}

CollRun
runCollectives(const std::string &topology, int nodes, int arity,
               bool offload, int phases, std::uint64_t seed,
               const std::vector<NodeFault> &crashes)
{
    Experiment exp(
        collConfig(topology, nodes, arity, offload, seed, crashes));
    CollectiveParams cp;
    cp.phases = phases;
    cp.rotateOps = !crashes.empty(); // latency sweep: all barriers
    cp.arity = arity;
    for (NodeId n = 0; n < exp.numNodes(); ++n)
        exp.setWorkload(n, std::make_unique<CollectiveWorkload>(
                               exp.proc(n), exp.msg(n), exp.barrier(),
                               exp.numNodes(), cp, seed));

    CollRun r;
    r.ran = exp.runUntilDone(static_cast<Cycle>(phases) * 400000);
    r.done = exp.allDone();
    r.tot = exp.totals();
    for (NodeId n = 0; n < exp.numNodes(); ++n) {
        if (exp.nodeCrashedEver(n))
            continue;
        auto *w = dynamic_cast<CollectiveWorkload *>(exp.workload(n));
        r.completedPhases += w->collectivesDone();
    }
    return r;
}

} // namespace

int
main(int argc, char **argv)
{
    setQuiet(true);
    BenchArgs args(argc, argv, 0, /*defNodes=*/0);
    std::string topology = "fattree";
    args.conf.knob("topology", topology, "network topology");
    int phases = 32;
    args.conf.knob("phases", phases, "collective phases per run", 1);
    int arity = 4;
    args.conf.knob("arity", arity, "combining-tree fan-out", 1);
    int crashNodes = 64;
    args.conf.knob("crashNodes", crashNodes,
                   "machine size of the crash-recovery runs");
    args.conf.close();

    struct FaultPoint
    {
        const char *name;
        std::vector<NodeFault> crashes;
    };
    NodeFault permanent;
    permanent.node = 2;
    permanent.crashAt = 2000;
    NodeFault bounce;
    bounce.node = 5;
    bounce.crashAt = 2000;
    bounce.restartAt = 5000;
    const FaultPoint points[] = {
        {"none", {}},
        {"1 fail-stop", {permanent}},
        {"1 crash+restart", {bounce}},
        {"fail-stop + bounce", {permanent, bounce}},
    };
    // Build the crash-recovery machine once before the sweep, so a
    // crashNodes the topology or the crash schedule cannot take is
    // rejected before the first table prints.
    try {
        Experiment check(collConfig(topology, crashNodes, arity, true,
                                    args.seed, {permanent, bounce}));
    } catch (const std::runtime_error &) {
        fatal("crashNodes=%d: no %s crash-recovery machine of that size",
              crashNodes, topology.c_str());
    }

    Table t("Barrier latency scaling on " + topology +
            ": software message tree vs NIC combining tree (arity " +
            std::to_string(arity) + ", " + std::to_string(phases) +
            " barrier phases)");
    t.header({"nodes", "mode", "cycles/barrier", "coll packets",
              "offload speedup"});
    const int sweep[] = {16, 64, 256};
    for (int nodes : sweep) {
        double perPhase[2] = {0, 0};
        for (int off = 0; off < 2; ++off) {
            CollRun r = runCollectives(topology, nodes, arity,
                                       off == 1, phases, args.seed,
                                       {});
            fatal_if(!r.done, "collective bench wedged at %d nodes",
                     nodes);
            perPhase[off] =
                static_cast<double>(r.ran) / double(phases);
            const char *mode = off ? "nic offload" : "software";
            t.row({Table::num(static_cast<long>(nodes)), mode,
                   Table::num(perPhase[off], 1),
                   Table::num(static_cast<long>(r.tot.collPackets)),
                   off ? Table::num(perPhase[0] / perPhase[1], 2)
                       : "--"});
            std::string key = std::string("coll.cyclesPerBarrier.") +
                              (off ? "offload." : "software.") +
                              std::to_string(nodes);
            args.report.addMetric(key, perPhase[off]);
        }
    }
    args.emit(t);

    // Crash resilience: the offloaded tree under fail-stop faults.
    Table c("Crash recovery under NIC offload: " +
            std::to_string(crashNodes) + " nodes, " +
            std::to_string(phases) +
            " mixed phases (barrier/bcast/reduce)");
    c.header({"fault", "survivor phases", "retx", "probes", "pruned",
              "degraded"});
    for (const FaultPoint &pt : points) {
        CollRun r = runCollectives(topology, crashNodes, arity, true,
                                   phases, args.seed, pt.crashes);
        fatal_if(!r.done, "crash bench wedged (%s)", pt.name);
        c.row({pt.name,
               Table::num(static_cast<long>(r.completedPhases)),
               Table::num(static_cast<long>(r.tot.collRetx)),
               Table::num(static_cast<long>(r.tot.collProbes)),
               Table::num(static_cast<long>(r.tot.collPruned)),
               Table::num(static_cast<long>(r.tot.collDegraded))});
        std::string key =
            std::string("coll.crash.") + pt.name + ".";
        args.report.addMetric(key + "retx", r.tot.collRetx);
        args.report.addMetric(key + "degraded", r.tot.collDegraded);
        args.report.addMetric(key + "survivorPhases",
                              r.completedPhases);
    }
    args.emit(c);
    args.note("the NIC combining tree completes a barrier in tree-"
              "depth NIC hops and keeps scaling where the software "
              "tree pays processor send/receive costs per level; "
              "crashed subtrees are probed, pruned, and the "
              "collective completes among survivors (degraded).");
    return args.finish();
}
