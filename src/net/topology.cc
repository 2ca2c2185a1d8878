#include "net/topology.hh"

#include "net/butterfly.hh"
#include "net/fattree.hh"
#include "net/mesh.hh"
#include "sim/log.hh"

namespace nifdy
{

void
Network::addToKernel(Kernel &kernel)
{
    for (auto &r : routers_) {
        r->setKernel(&kernel);
        kernel.add(r.get());
    }
}

double
Network::averageDistance() const
{
    double total = 0;
    long pairs = 0;
    for (NodeId a = 0; a < numNodes(); ++a) {
        for (NodeId b = 0; b < numNodes(); ++b) {
            if (a == b)
                continue;
            total += distance(a, b);
            ++pairs;
        }
    }
    return pairs ? total / pairs : 0.0;
}

int
Network::maxDistance() const
{
    int best = 0;
    for (NodeId a = 0; a < numNodes(); ++a)
        for (NodeId b = 0; b < numNodes(); ++b)
            best = std::max(best, distance(a, b));
    return best;
}

double
Network::volumeFlitsPerNode() const
{
    double total = 0;
    for (const auto &r : routers_)
        total += r->bufferCapacityFlits();
    return total / numNodes();
}

std::uint64_t
Network::totalFlitsSwitched() const
{
    std::uint64_t total = 0;
    for (const auto &r : routers_)
        total += r->flitsSwitched();
    return total;
}

int
Network::totalBufferedFlits() const
{
    int total = 0;
    for (const auto &r : routers_)
        total += r->bufferedFlits();
    return total;
}

int
Network::totalInFlightFlits() const
{
    int total = 0;
    for (const auto &c : channels_)
        total += c->inFlight();
    return total;
}

Channel *
Network::newChannel()
{
    if (!faultRngSeeded_) {
        faultRng_ = Rng(params_.seed, 0xfa17);
        faultRngSeeded_ = true;
    }
    ChannelParams cp;
    cp.cyclesPerFlit = params_.cyclesPerFlit();
    cp.latency = params_.channelLatency;
    cp.timeSliced = params_.timeSliced;
    if (params_.degradedFraction > 0 &&
        faultRng_.chance(params_.degradedFraction)) {
        cp.cyclesPerFlit *= std::max(1, params_.degradeFactor);
        ++degradedLinks_;
    }
    channels_.push_back(std::make_unique<Channel>(cp));
    internalIdx_.push_back(static_cast<int>(channels_.size()) - 1);
    return channels_.back().get();
}

Channel *
Network::newNicChannel()
{
    // NIC links run at the same speed as network links and are
    // never degraded (faults live inside the fabric).
    ChannelParams cp;
    cp.cyclesPerFlit = params_.cyclesPerFlit();
    cp.latency = params_.channelLatency;
    cp.timeSliced = params_.timeSliced;
    channels_.push_back(std::make_unique<Channel>(cp));
    return channels_.back().get();
}

RouterParams
Network::routerParams(int id) const
{
    RouterParams rp;
    rp.vcsPerClass = params_.vcsPerClass;
    rp.bufDepth = params_.bufDepth;
    rp.storeAndForward = params_.storeAndForward;
    // Duato requirement: adaptive heads keep their VC choice open
    // until they can actually move.
    rp.allocNeedsCredit = params_.adaptiveRouting;
    rp.seed = params_.seed + id;
    return rp;
}

std::unique_ptr<Network>
makeNetwork(const std::string &name, NetworkParams params)
{
    auto square = [&](int n) {
        int s = 1;
        while (s * s < n)
            ++s;
        fatal_if(s * s != n, "numNodes %d is not a square", n);
        return s;
    };
    auto cube = [&](int n) {
        int s = 1;
        while (s * s * s < n)
            ++s;
        fatal_if(s * s * s != n, "numNodes %d is not a cube", n);
        return s;
    };

    if (name == "mesh2d-adaptive") {
        if (params.dims.empty()) {
            int s = square(params.numNodes);
            params.dims = {s, s};
        }
        params.wrap = false;
        params.adaptiveRouting = true;
        if (params.vcsPerClass < 2)
            params.vcsPerClass = 2; // escape + adaptive
        return std::make_unique<MeshNetwork>(params);
    }
    if (name == "mesh2d" || name == "torus2d") {
        if (params.dims.empty()) {
            int s = square(params.numNodes);
            params.dims = {s, s};
        }
        params.wrap = (name == "torus2d");
        if (params.wrap && params.vcsPerClass < 2)
            params.vcsPerClass = 2; // dateline VCs
        return std::make_unique<MeshNetwork>(params);
    }
    if (name == "mesh3d") {
        if (params.dims.empty()) {
            int s = cube(params.numNodes);
            params.dims = {s, s, s};
        }
        params.wrap = false;
        return std::make_unique<MeshNetwork>(params);
    }
    if (name == "fattree" || name == "fattree-saf" || name == "cm5") {
        if (params.upArity.empty()) {
            int levels = 0;
            long n = 1;
            while (n < params.numNodes) {
                n *= 4;
                ++levels;
            }
            fatal_if(n != params.numNodes,
                     "numNodes %d is not a power of 4", params.numNodes);
            params.upArity.assign(levels, 4);
            if (name == "cm5") {
                // First two levels have two parents, not four.
                for (int l = 0; l < std::min(levels, 2); ++l)
                    params.upArity[l] = 2;
            }
        }
        if (name == "fattree-saf") {
            params.storeAndForward = true;
            // Whole packets must fit in one hop's buffer.
            if (params.bufDepth < 8)
                params.bufDepth = 8;
        }
        if (name == "cm5")
            params.timeSliced = true;
        return std::make_unique<FatTreeNetwork>(params);
    }
    if (name == "butterfly" || name == "multibutterfly") {
        params.dilation = (name == "multibutterfly") ? 2 : 1;
        return std::make_unique<ButterflyNetwork>(params);
    }
    fatal("unknown topology '%s'", name.c_str());
}

std::vector<std::string>
paperTopologies()
{
    return {"fattree", "cm5",    "fattree-saf", "mesh2d",
            "torus2d", "mesh3d", "butterfly"};
}

} // namespace nifdy
