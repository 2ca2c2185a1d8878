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
 */

#include "benchutil.hh"
#include "nic/plainnic.hh"

using namespace nifdy;

namespace
{

/** Measure one unloaded delivery time at a given hop distance. */
Cycle
probeLatency(Network &net, std::vector<std::unique_ptr<BufferedNic>> &
                               nics,
             Kernel &kernel, PacketPool &pool, NodeId src, NodeId dst,
             int bytes)
{
    Packet *p = pool.alloc();
    p->src = src;
    p->dst = dst;
    p->sizeBytes = bytes;
    Cycle start = kernel.now();
    nics[src]->send(p, start);
    kernel.run(200000, [&] { return nics[dst]->arrivalsPending() > 0; });
    Cycle arrival = kernel.now();
    Packet *got = nics[dst]->pollReceive(arrival);
    pool.release(got);
    (void)net;
    return arrival - start;
}

struct Probe
{
    double latA = 0;
    double latB = 0;
    double maxLat = 0;
};

/** Fit T_lat(d) over a spread of destination distances. */
Probe
fitLatency(const std::string &topo, int nodes, int bytes,
           std::uint64_t seed)
{
    NetworkParams np;
    np.numNodes = nodes;
    np.seed = seed;
    auto net = makeNetwork(topo, np);
    Kernel kernel;
    net->addToKernel(kernel);
    PacketPool pool;
    std::vector<std::unique_ptr<BufferedNic>> nics;
    for (NodeId n = 0; n < nodes; ++n) {
        NicParams nicp;
        nicp.flitBytes = net->params().flitBytes;
        nicp.vcsPerClass = net->params().vcsPerClass;
        nicp.ejectDepth = net->params().ejectDepth;
        nicp.arrivalFifo = 4;
        nics.push_back(std::make_unique<BufferedNic>(
            n, net->nodePorts(n), nicp, pool, 4));
        nics.back()->setKernel(&kernel);
        kernel.add(nics.back().get());
    }
    // Sample pairs covering the distance range.
    std::vector<std::pair<int, Cycle>> samples;
    Probe out;
    for (NodeId dst = 1; dst < nodes; dst = dst * 2 + 1) {
        int d = net->distance(0, dst);
        Cycle lat = probeLatency(*net, nics, kernel, pool, 0, dst,
                                 bytes);
        samples.emplace_back(d, lat);
        out.maxLat = std::max(out.maxLat, double(lat));
    }
    // Least-squares fit.
    double n = samples.size(), sx = 0, sy = 0, sxx = 0, sxy = 0;
    for (auto &[d, lat] : samples) {
        sx += d;
        sy += lat;
        sxx += double(d) * d;
        sxy += double(d) * lat;
    }
    double denom = n * sxx - sx * sx;
    out.latA = denom != 0 ? (n * sxy - sx * sy) / denom : 0;
    out.latB = (sy - out.latA * sx) / n;
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    setQuiet(true);
    BenchArgs args(argc, argv, 0);
    int bytes = 32;
    args.conf.knob("packet", bytes, "probe packet size in bytes", 1);
    args.conf.close();

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
        Probe p = fitLatency(topo, args.nodes, bytes, args.seed);

        NetModel m;
        m.latA = p.latA;
        m.latB = p.latB;
        int dmax = net->maxDistance();
        NifdyConfig best = bestNifdyParams(topo);
        t.row({topo, Table::num(static_cast<long>(dmax)),
               Table::num(net->averageDistance(), 1),
               Table::num(p.latA, 1) + "d+" + Table::num(p.latB, 1),
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
    args.note("T_lat fitted on an unloaded network (32-byte packets);"
              "\nW_analytic is Equation 3's window for full pairwise"
              " bandwidth at d_max;\nO/B/D/W are the tuned parameters"
              " used by the other benches.\nPaper constants: T_send=40"
              " T_receive=60 T_ackproc=4 (Table 2 / Section 2.4.3).");
    return args.finish();
}
