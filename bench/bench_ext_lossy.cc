/**
 * @file
 * Section 6.2 extension evaluation (beyond the paper, which
 * proposes but does not measure it): NIFDY over a packet-dropping
 * network. Sweeps the drop probability and reports delivered
 * throughput, retransmissions, and duplicates -- degradation should
 * be graceful and delivery remains exactly-once and in order (the
 * test suite asserts the latter).
 *
 * Args: cycles=120000 nodes=16 seed=1 timeout=3000 csv=false
 */

#include "benchutil.hh"
#include "nic/retransmit.hh"

using namespace nifdy;

int
main(int argc, char **argv)
{
    setQuiet(true);
    BenchArgs args(argc, argv, 120000, 16);
    Cycle timeout = 3000;
    args.conf.knob("timeout", timeout, "retransmit timeout in cycles",
                   1);
    args.conf.close();

    Table t("Extension (Section 6.2): heavy synthetic traffic on the "
            "2-D mesh with packet loss, " +
            std::to_string(args.nodes) + " nodes");
    t.header({"drop rate", "packets delivered", "vs lossless",
              "retransmissions", "dropped", "duplicates"});

    SyntheticParams sp = SyntheticParams::heavy();
    std::uint64_t base = 0;
    for (double drop : {0.0, 0.001, 0.01, 0.05, 0.10}) {
        ExperimentConfig cfg;
        cfg.topology = "mesh2d";
        cfg.numNodes = args.nodes;
        cfg.nicKind = NicKind::lossy;
        cfg.seed = args.seed;
        cfg.lossy.dropProb = drop;
        cfg.lossy.retxTimeout = timeout;
        auto exp = syntheticExperiment(cfg, sp);
        exp->runFor(args.cycles);
        const Experiment::Totals tot = exp->totals();
        if (!base)
            base = tot.packetsDelivered;
        char label[32];
        std::snprintf(label, sizeof(label), "%.1f%%", drop * 100);
        t.row({label, Table::num(static_cast<long>(tot.packetsDelivered)),
               Table::num(double(tot.packetsDelivered) / double(base), 3),
               Table::num(static_cast<long>(tot.retransmissions)),
               Table::num(static_cast<long>(tot.dropped)),
               Table::num(static_cast<long>(tot.duplicates))});
    }
    args.emit(t);
    args.note("per Section 6.2 / [KC94]: masking drops in the NI"
              " avoids the 30-50% software cost of handling them.");
    return args.finish();
}
