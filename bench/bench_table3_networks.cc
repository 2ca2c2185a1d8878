/**
 * @file
 * Table 3: characteristics of the simulated 64-node networks and
 * the NIFDY parameters used for them. For each topology this bench
 * measures the unloaded one-way packet latency at several hop
 * counts, fits T_lat(d) = a*d + b, reports the network volume and
 * distances, evaluates the Section 2.4 analytic model (round trip,
 * suggested bulk window), and prints the best parameters the other
 * benches use.
 *
 * Args: nodes=64 seed=1 csv=false packet=32
 *
 * A packet larger than fattree-saf's per-VC buffer is rejected: a
 * store-and-forward head leaves a router only once its tail is
 * buffered there, so such a probe would never leave its first router.
 */

#include "benchutil.hh"

using namespace nifdy;

int
main(int argc, char **argv)
{
    setQuiet(true);
    BenchArgs args(argc, argv, 0);
    int bytes = 32;
    args.conf.knob("packet", bytes, "probe packet size in bytes", 1);
    args.conf.close();
    NetworkParams safParams;
    safParams.numNodes = args.nodes;
    const NetworkParams saf =
        makeNetwork("fattree-saf", safParams)->params();
    const int flits = (bytes + saf.flitBytes - 1) / saf.flitBytes;
    fatal_if(flits > saf.bufDepth,
             "packet=%d: a %d-flit packet does not fit in fattree-saf's "
             "%d-flit (%d-byte) VC buffer, so store-and-forward would "
             "never send it",
             bytes, flits, saf.bufDepth, saf.bufDepth * saf.flitBytes);

    Table t("Table 3: simulated " + std::to_string(args.nodes) +
            "-node networks, measured characteristics and NIFDY "
            "parameters");
    t.header({"network", "d_max", "d_avg", "T_lat(d) fit",
              "T_rt(d_max)", "vol (flits/node)", "W_analytic",
              "O", "B", "D", "W"});

    for (const std::string &topo : paperTopologies()) {
        NetworkParams np;
        np.numNodes = args.nodes;
        np.seed = args.seed;
        auto net = makeNetwork(topo, np);
        const NetModel m =
            fitLatency(topo, args.nodes, bytes, args.seed).model;
        int dmax = net->maxDistance();
        NifdyConfig best = bestNifdyParams(topo);
        t.row({topo, Table::num(static_cast<long>(dmax)),
               Table::num(net->averageDistance(), 1),
               Table::num(m.latA, 1) + "d+" + Table::num(m.latB, 1),
               Table::num(roundTrip(m, dmax), 0),
               Table::num(net->volumeFlitsPerNode(), 1),
               Table::num(static_cast<long>(
                   windowForCombinedAcks(m, dmax))),
               Table::num(static_cast<long>(best.opt)),
               Table::num(static_cast<long>(best.pool)),
               Table::num(static_cast<long>(best.dialogs)),
               Table::num(static_cast<long>(best.window))});
    }
    args.emit(t);
    args.note("T_lat fitted on an unloaded network (" +
              std::to_string(bytes) +
              "-byte packets);"
              "\nW_analytic is Equation 3's window for full pairwise"
              " bandwidth at d_max;\nO/B/D/W are the tuned parameters"
              " used by the other benches.\nPaper constants: T_send=40"
              " T_receive=60 T_ackproc=4 (Table 2 / Section 2.4.3).");
    return args.finish();
}
