/**
 * @file
 * The two remaining congestion sources of Section 1.1, as stress
 * ablations:
 *
 *  (a) Hot spots: a fraction of all messages target one node.
 *      NIFDY's per-destination admission control lets every sender
 *      keep at most one packet aimed at the hot node, so the rest
 *      of the machine keeps communicating ("reduces end-point
 *      congestion and adjusts to hot-spots").
 *
 *  (b) Faults: a fraction of internal fabric links run at a
 *      quarter of their bandwidth. On a multipath network the
 *      adaptive switches route around the slow links; NIFDY's
 *      admission control keeps the remaining capacity inside its
 *      operating range.
 *
 * Args: cycles=100000 nodes=64 seed=1 csv=false
 */

#include "benchutil.hh"

using namespace nifdy;

namespace
{

std::uint64_t
runStress(const std::string &topo, NicKind kind, double hotspot,
          double degraded, Cycle cycles, int nodes,
          std::uint64_t seed)
{
    ExperimentConfig cfg;
    cfg.topology = topo;
    cfg.numNodes = nodes;
    cfg.nicKind = kind;
    cfg.seed = seed;
    cfg.net.degradedFraction = degraded;
    SyntheticParams sp = SyntheticParams::heavy();
    sp.hotspotProb = hotspot;
    sp.hotspot = nodes / 2;
    auto exp = syntheticExperiment(cfg, sp);
    exp->runFor(cycles);
    return exp->packetsDelivered();
}

} // namespace

int
main(int argc, char **argv)
{
    setQuiet(true);
    BenchArgs args(argc, argv, 100000);
    args.conf.close();

    {
        Table t("Stress A: hot-spot traffic on the fat tree "
                "(fraction of messages aimed at one node)");
        t.header({"hot-spot share", "none", "buffers", "nifdy",
                  "nifdy/none"});
        for (double h : {0.0, 0.2, 0.5}) {
            auto none = runStress("fattree", NicKind::none, h, 0,
                                  args.cycles, args.nodes, args.seed);
            auto buf = runStress("fattree", NicKind::buffers, h, 0,
                                 args.cycles, args.nodes, args.seed);
            auto nif = runStress("fattree", NicKind::nifdy, h, 0,
                                 args.cycles, args.nodes, args.seed);
            char label[16];
            std::snprintf(label, sizeof(label), "%.0f%%", h * 100);
            t.row({label, Table::num(static_cast<long>(none)),
                   Table::num(static_cast<long>(buf)),
                   Table::num(static_cast<long>(nif)),
                   Table::num(double(nif) / double(none), 2)});
        }
        args.emit(t);
    }
    {
        Table t("Stress B: degraded fabric links (quarter bandwidth)"
                " on the fat tree");
        t.header({"degraded links", "none", "nifdy", "nifdy/none"});
        for (double f : {0.0, 0.15, 0.30}) {
            auto none = runStress("fattree", NicKind::none, 0, f,
                                  args.cycles, args.nodes, args.seed);
            auto nif = runStress("fattree", NicKind::nifdy, 0, f,
                                 args.cycles, args.nodes, args.seed);
            char label[16];
            std::snprintf(label, sizeof(label), "%.0f%%", f * 100);
            t.row({label, Table::num(static_cast<long>(none)),
                   Table::num(static_cast<long>(nif)),
                   Table::num(double(nif) / double(none), 2)});
        }
        args.emit(t);
    }
    return args.finish();
}
