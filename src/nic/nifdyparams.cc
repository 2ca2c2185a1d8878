#include "nic/nifdyparams.hh"

#include <algorithm>
#include <cmath>
#include <memory>

#include "nic/plainnic.hh"
#include "sim/log.hh"

namespace nifdy
{

LatencyFit
fitLatency(const std::string &topology, int nodes, int packetBytes,
           std::uint64_t seed)
{
    NetworkParams np;
    np.numNodes = nodes;
    np.seed = seed;
    auto net = makeNetwork(topology, np);
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

    LatencyFit fit;
    double sx = 0;
    double sy = 0;
    double sxx = 0;
    double sxy = 0;
    constexpr Cycle budget = 200000;
    for (NodeId dst = 1; dst < nodes; dst = dst * 2 + 1) {
        Packet *p = pool.alloc();
        p->src = 0;
        p->dst = dst;
        p->sizeBytes = packetBytes;
        const Cycle start = kernel.now();
        nics[0]->send(p, start);
        kernel.run(budget,
                   [&] { return nics[dst]->arrivalsPending() > 0; });
        fatal_if(nics[dst]->arrivalsPending() == 0,
                 "%s: a %d-byte probe from node 0 to node %d was not "
                 "delivered within %llu cycles",
                 topology.c_str(), packetBytes, dst,
                 static_cast<unsigned long long>(budget));
        pool.release(nics[dst]->pollReceive(kernel.now()));
        const LatencyProbe &pr = fit.probes.emplace_back(LatencyProbe{
            dst, net->distance(0, dst), kernel.now() - start});
        sx += pr.hops;
        sy += pr.cycles;
        sxx += double(pr.hops) * pr.hops;
        sxy += double(pr.hops) * pr.cycles;
    }
    const double n = fit.probes.size();
    const double denom = n * sxx - sx * sx;
    fit.model.latA = denom != 0 ? (n * sxy - sx * sy) / denom : 0;
    fit.model.latB = (sy - fit.model.latA * sx) / n;
    return fit;
}

double
latency(const NetModel &m, int hops)
{
    return m.latA * hops + m.latB;
}

double
roundTrip(const NetModel &m, int hops)
{
    return 2 * latency(m, hops) + m.tAckProc;
}

namespace
{

double
bottleneck(const NetModel &m)
{
    return std::max({m.tSend, m.tReceive, m.tLink});
}

} // namespace

double
rawBandwidth(const NetModel &m, int packetBytes)
{
    return packetBytes / bottleneck(m);
}

double
scalarBandwidth(const NetModel &m, int packetBytes, int hops)
{
    double interval = std::max(bottleneck(m), roundTrip(m, hops));
    return packetBytes / interval;
}

int
windowForCombinedAcks(const NetModel &m, int hops)
{
    double w = 2 * (roundTrip(m, hops) / bottleneck(m) - 1);
    return std::max(2, static_cast<int>(std::ceil(w)));
}

int
windowForPerPacketAcks(const NetModel &m, int hops)
{
    double w = roundTrip(m, hops) / bottleneck(m);
    return std::max(1, static_cast<int>(std::ceil(w)));
}

bool
scalarSufficient(const NetModel &m, int hops)
{
    return roundTrip(m, hops) <= bottleneck(m);
}

NifdyConfig
suggestConfig(const NetModel &m, int maxHops,
              double volumeWordsPerNode, double bisectionRatio)
{
    NifdyConfig cfg;
    // Generous defaults for roomy networks, restricted below.
    cfg.opt = 8;
    cfg.pool = 8;
    cfg.dialogs = 1;

    // Section 2.4.3: a low-volume network fills up with only a few
    // packets per node, so admit fewer outstanding packets.
    bool lowVolume = volumeWordsPerNode < 16;
    bool lowBisection = bisectionRatio < 0.5;
    if (lowVolume || lowBisection) {
        cfg.opt = 4;
        cfg.pool = 4;
    }

    if (scalarSufficient(m, maxHops)) {
        // Round trips hide under the software overhead: bulk
        // dialogs help only marginally.
        cfg.window = scalarSufficient(m, maxHops) ? 2 : 4;
    } else {
        cfg.window = windowForCombinedAcks(m, maxHops);
        if (lowVolume || lowBisection)
            cfg.window = std::max(2, cfg.window / 2);
        cfg.window = std::min(cfg.window, 8);
    }
    return cfg;
}

} // namespace nifdy
