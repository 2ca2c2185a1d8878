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
    NetworkParams np;
    np.numNodes = nodes;
    np.seed = seed;
    auto net = makeNetwork(topo, np);
    Kernel kernel;
    net->addToKernel(kernel);
    PacketPool pool;
    std::vector<std::unique_ptr<PlainNic>> nics;
    for (NodeId n = 0; n < nodes; ++n) {
        NicParams nicp;
        nicp.flitBytes = net->params().flitBytes;
        nicp.vcsPerClass = net->params().vcsPerClass;
        nicp.ejectDepth = net->params().ejectDepth;
        nics.push_back(std::make_unique<PlainNic>(
            n, net->nodePorts(n), nicp, pool));
        nics.back()->setKernel(&kernel);
        kernel.add(nics.back().get());
    }

    double sx = 0;
    double sy = 0;
    double sxx = 0;
    double sxy = 0;
    int samples = 0;
    for (NodeId dst = 1; dst < nodes; dst = dst * 2 + 1) {
        Packet *p = pool.alloc();
        p->src = 0;
        p->dst = dst;
        p->sizeBytes = 32;
        Cycle start = kernel.now();
        nics[0]->send(p, start);
        kernel.run(100000,
                   [&] { return nics[dst]->arrivalsPending() > 0; });
        Cycle lat = kernel.now() - start;
        pool.release(nics[dst]->pollReceive(kernel.now()));
        int d = net->distance(0, dst);
        std::printf("probe 0->%d: %d hops, %lu cycles\n", dst, d,
                    static_cast<unsigned long>(lat));
        sx += d;
        sy += lat;
        sxx += double(d) * d;
        sxy += double(d) * lat;
        ++samples;
    }
    double denom = samples * sxx - sx * sx;
    NetModel m;
    m.latA = denom != 0 ? (samples * sxy - sx * sy) / denom : 0;
    m.latB = (sy - m.latA * sx) / samples;

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
