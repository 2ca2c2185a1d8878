/**
 * @file
 * Endpoint fault domain evaluation: the chaos soak as a sweep.
 * Heavy synthetic traffic over a lossy fabric while whole nodes
 * fail-stop and (optionally) restart with bumped incarnation
 * epochs. Sweeps the number of seeded random crash victims and
 * reports goodput degradation alongside the recovery machinery's
 * activity: epoch rejects, dialog teardowns, reclaimed (abandoned)
 * packets, and dead-peer declarations. Goodput should degrade in
 * proportion to the lost endpoints, not collapse -- live pairs keep
 * their full streams (the chaos test suite asserts byte-identity).
 *
 * Args: cycles=160000 nodes=16 seed=1 topology=fattree drop=0.01
 *       restartAfter=6000 reclaim=20000 csv=false help=false
 */

#include "benchutil.hh"
#include "nic/retransmit.hh"
#include "sim/fault.hh"

using namespace nifdy;

int
main(int argc, char **argv)
{
    setQuiet(true);
    BenchArgs args(argc, argv, 160000, 16);
    std::string topology = "fattree";
    args.conf.knob("topology", topology, "network topology");
    double drop = 0.01;
    args.conf.knob("drop", drop, "per-hop in-fabric drop probability");
    Cycle restartAfter = 6000;
    args.conf.knob("restartAfter", restartAfter,
                   "downtime before a crashed node restarts");
    Cycle reclaim = 20000;
    args.conf.knob("reclaim", reclaim,
                   "live-peer protocol-state reclamation timeout");
    args.conf.close();

    Table t("Endpoint fault domain: heavy synthetic traffic on " +
            topology + " with " + std::to_string(args.nodes) +
            " nodes, crash/restart chaos plus in-fabric drops");
    t.header({"crashes", "mode", "words delivered", "vs fault-free",
              "epoch rejects", "dialog teardowns", "abandoned",
              "dead peers"});

    SyntheticParams sp = SyntheticParams::heavy();
    struct Point
    {
        int crashes;
        bool restart;
    };
    const Point sweep[] = {
        {0, true}, {1, true}, {2, true}, {4, true}, {2, false}};
    std::uint64_t base = 0;
    for (const Point &pt : sweep) {
        ExperimentConfig cfg;
        cfg.topology = topology;
        cfg.numNodes = args.nodes;
        cfg.nicKind = NicKind::lossy;
        cfg.seed = args.seed;
        cfg.lossy.retxTimeout = 1200;
        cfg.lossy.backoffFactor = 2.0;
        cfg.lossy.maxRetxTimeout = 9600;
        cfg.lossy.jitterFrac = 0.25;
        cfg.lossy.maxRetries = 8;
        cfg.fault.dropProb = drop;
        cfg.nodeFault.randomCrashes = pt.crashes;
        cfg.nodeFault.randomCrashFrom = args.cycles / 4;
        cfg.nodeFault.randomCrashSpan = args.cycles / 2;
        cfg.nodeFault.randomRestartAfter =
            pt.restart ? restartAfter : 0;
        cfg.nodeFault.seed = 11;
        cfg.nodeReclaim = reclaim;
        auto exp = syntheticExperiment(cfg, sp);
        exp->runFor(args.cycles);

        const Experiment::Totals tot = exp->totals();
        if (!base)
            base = tot.wordsDelivered;
        t.row({Table::num(static_cast<long>(pt.crashes)),
               pt.restart ? "restart" : "fail-stop",
               Table::num(static_cast<long>(tot.wordsDelivered)),
               Table::num(double(tot.wordsDelivered) / double(base), 3),
               Table::num(static_cast<long>(tot.epochRejects)),
               Table::num(static_cast<long>(tot.dialogTeardowns)),
               Table::num(static_cast<long>(tot.abandoned)),
               Table::num(static_cast<long>(tot.deadPeers))});
    }
    args.emit(t);
    args.note("crashed endpoints are excised, not fatal: restarted "
              "nodes rejoin under a new incarnation epoch and "
              "permanent losses are reclaimed by live peers.");
    return args.finish();
}
