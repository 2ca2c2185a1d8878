/**
 * @file
 * Example: tuning NIFDY to a network with the Section 2.4 analytic
 * model. Measures the unloaded latency of the chosen topology, fits
 * T_lat(d), evaluates the bandwidth equations, and prints a
 * suggested {O, B, D, W} configuration alongside the hand-tuned one.
 *
 * Usage: tuning_advisor [topology=mesh2d] [nodes=64] [seed=1]
 */

#include <cstdio>

#include "sim/log.hh"
#include "harness/experiment.hh"
#include "sim/config.hh"
#include "sim/table.hh"

using namespace nifdy;

int
main(int argc, char **argv)
{
    setQuiet(true);
    Config conf;
    conf.parseArgs(argc, argv);
    std::string topo = "mesh2d";
    conf.knob("topology", topo, "network topology");
    int nodes = 64;
    conf.knob("nodes", nodes, "number of nodes");
    std::uint64_t seed = 1;
    conf.knob("seed", seed, "network RNG seed");
    conf.close();

    // Measure unloaded latency at a few distances with plain NICs.
    const LatencyFit fit = fitLatency(topo, nodes, 32, seed);
    for (const LatencyProbe &pr : fit.probes)
        std::printf("probe 0->%d: %d hops, %lu cycles\n", pr.dst, pr.hops,
                    static_cast<unsigned long>(pr.cycles));
    const NetModel &m = fit.model;

    NetworkParams np;
    np.numNodes = nodes;
    np.seed = seed;
    auto net = makeNetwork(topo, np);
    int dmax = net->maxDistance();
    double volume = net->volumeFlitsPerNode();
    double bisection = topo.find("mesh") != std::string::npos ||
                               topo == "torus2d" || topo == "cm5"
                           ? 0.25
                           : 1.0;
    NifdyConfig suggested = suggestConfig(m, dmax, volume, bisection);
    NifdyConfig tuned = bestNifdyParams(topo);

    Table t("tuning advisor for " + net->name());
    t.header({"quantity", "value"});
    t.row({"T_lat(d) fit", Table::num(m.latA, 1) + "*d + " +
                               Table::num(m.latB, 1)});
    t.row({"T_roundtrip(d_max)", Table::num(roundTrip(m, dmax), 0)});
    t.row({"raw pairwise bandwidth (B/cyc)",
           Table::num(rawBandwidth(m, 32), 3)});
    t.row({"scalar NIFDY bandwidth (B/cyc)",
           Table::num(scalarBandwidth(m, 32, dmax), 3)});
    t.row({"scalar protocol sufficient?",
           scalarSufficient(m, dmax) ? "yes" : "no (use bulk)"});
    t.row({"window, combined acks (Eq. 3)",
           Table::num(long(windowForCombinedAcks(m, dmax)))});
    t.row({"window, per-packet acks (Eq. 4)",
           Table::num(long(windowForPerPacketAcks(m, dmax)))});
    t.row({"suggested O/B/D/W",
           Table::num(long(suggested.opt)) + "/" +
               Table::num(long(suggested.pool)) + "/" +
               Table::num(long(suggested.dialogs)) + "/" +
               Table::num(long(suggested.window))});
    t.row({"hand-tuned O/B/D/W (Table 3)",
           Table::num(long(tuned.opt)) + "/" +
               Table::num(long(tuned.pool)) + "/" +
               Table::num(long(tuned.dialogs)) + "/" +
               Table::num(long(tuned.window))});
    t.print();
    return 0;
}
