/**
 * @file
 * Robustness extension evaluation: NIFDY with hardened
 * retransmission (exponential backoff, jitter, retry caps) over a
 * fabric that injects faults *inside* the network -- per-hop packet
 * drops and corruption -- rather than at the receiving NIC. Sweeps
 * the in-fabric fault rate and reports goodput degradation,
 * recovery traffic, and recovery latency; degradation should be
 * graceful and delivery stays exactly-once and in order (the test
 * suite asserts the latter).
 *
 * Args: cycles=120000 nodes=16 seed=1 topology=mesh2d corrupt=0
 *       timeout=1500 backoff=2.0 maxTimeout=12000 jitter=0.25
 *       retries=0 csv=false help=false
 *
 * `--anatomy` (or anatomy.enabled=true) attributes every sampled
 * packet's latency to stall causes per fault rate: the retx-backoff
 * and epoch-recovery shares grow with the drop probability while
 * conservation still holds exactly (audited; see
 * `tools/analyze.py latency --check-conservation`).
 *
 * `--congestion` (or congestion.enabled=true) records the per-link
 * stall map and flow-progress attribution per fault rate under
 * "congestion.fault<N>.*"; its busy/idle/stalled tiling holds
 * exactly even while the fabric drops packets (see
 * `tools/analyze.py congestion --check-conservation`).
 */

#include "benchutil.hh"
#include "nic/retransmit.hh"
#include "sim/fault.hh"

using namespace nifdy;

int
main(int argc, char **argv)
{
    setQuiet(true);
    BenchArgs args(argc, argv, 120000, 16);
    args.bindTelemetry();
    std::string topology = "mesh2d";
    args.conf.knob("topology", topology, "network topology");
    LossyConfig &lossy = args.base.lossy;
    args.conf.knob("corrupt", args.base.fault.corruptProb,
                   "per-hop corruption probability at every drop rate");
    lossy.retxTimeout = 1500;
    args.conf.knob("timeout", lossy.retxTimeout,
                   "initial retransmit timeout in cycles", 1);
    lossy.backoffFactor = 2.0;
    args.conf.knob("backoff", lossy.backoffFactor,
                   "timeout multiplier per retry");
    lossy.maxRetxTimeout = 12000;
    args.conf.knob("maxTimeout", lossy.maxRetxTimeout,
                   "backoff ceiling in cycles");
    lossy.jitterFrac = 0.25;
    args.conf.knob("jitter", lossy.jitterFrac,
                   "retransmit deadline jitter fraction");
    args.conf.knob("retries", lossy.maxRetries,
                   "declare a peer dead after N retries (0 = never)", 0);
    args.conf.close();

    Table t("Robustness extension: heavy synthetic traffic on " +
            topology + " with in-fabric faults, " +
            std::to_string(args.nodes) + " nodes");
    t.header({"fault rate", "words delivered", "vs fault-free",
              "fabric drops", "corrupted", "retransmissions",
              "recovery mean", "dead peers"});

    SyntheticParams sp = SyntheticParams::heavy();
    std::uint64_t base = 0;
    for (double drop : {0.0, 0.01, 0.02, 0.05, 0.10, 0.20}) {
        ExperimentConfig cfg = args.base;
        cfg.topology = topology;
        cfg.numNodes = args.nodes;
        cfg.nicKind = NicKind::lossy;
        cfg.seed = args.seed;
        cfg.fault.dropProb = drop;
        auto exp = syntheticExperiment(cfg, sp);
        exp->runFor(args.cycles);

        const Experiment::Totals tot = exp->totals();
        const std::uint64_t words = tot.wordsDelivered;
        if (!base)
            base = words;
        char label[32];
        std::snprintf(label, sizeof(label), "%.0f%%", drop * 100);
        char tag[32];
        std::snprintf(tag, sizeof(tag), "fault%.0f", drop * 100);
        recordAnatomy(*exp, args, tag);
        recordCongestion(*exp, args, tag);
        t.row({label, Table::num(static_cast<long>(words)),
               Table::num(double(words) / double(base), 3),
               Table::num(static_cast<long>(
                   exp->faults() ? exp->faults()->packetsDroppedInFabric()
                                 : 0)),
               Table::num(static_cast<long>(
                   exp->faults() ? exp->faults()->packetsCorrupted()
                                 : 0)),
               Table::num(static_cast<long>(tot.retransmissions)),
               tot.recovery.count() ? Table::num(tot.recovery.mean(), 1)
                                    : "-",
               Table::num(static_cast<long>(tot.deadPeers))});
    }
    args.emit(t);
    args.note("in-fabric losses are recovered end to end; backoff "
              "keeps the recovery traffic from compounding the "
              "fault rate.");
    return args.finish();
}
