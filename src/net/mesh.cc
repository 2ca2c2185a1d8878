#include "net/mesh.hh"

#include "sim/log.hh"

namespace nifdy
{

MeshRouter::MeshRouter(int id, const RouterParams &rp,
                       const MeshNetwork &net)
    : Router(id, rp), net_(net), coord_(net.coordOf(id))
{
}

namespace
{
/** routeScratch bit marking "took the escape VC; stay in order". */
constexpr std::uint32_t escapedBit = 1u << 16;
} // namespace

int
MeshRouter::dorPort(const Packet &pkt) const
{
    for (int d = 0; d < net_.numDims(); ++d) {
        int want = net_.coord(pkt.dst, d);
        if (coord_[d] == want)
            continue;
        return want > coord_[d] ? net_.portPlus(d) : net_.portMinus(d);
    }
    return net_.ejectPort();
}

NIFDY_HOT bool
MeshRouter::route(int inPort, Packet &pkt, std::vector<int> &candidates)
{
    (void)inPort;
    if (net_.adaptive() && !(pkt.routeScratch & escapedBit)) {
        // Duato-style minimal adaptive routing: any productive
        // direction; the switch picks by downstream credit.
        for (int d = 0; d < net_.numDims(); ++d) {
            int want = net_.coord(pkt.dst, d);
            if (coord_[d] == want)
                continue;
            candidates.push_back( // nifdy:alloc-ok(router scratch keeps its capacity)
                want > coord_[d] ? net_.portPlus(d) : net_.portMinus(d));
        }
        if (candidates.empty())
            candidates.push_back(net_.ejectPort()); // nifdy:alloc-ok(router scratch keeps its capacity)
        return candidates.size() > 1;
    }

    for (int d = 0; d < net_.numDims(); ++d) {
        int cur = coord_[d];
        int want = net_.coord(pkt.dst, d);
        if (cur == want)
            continue;
        int k = net_.dimSize(d);
        bool plus;
        if (!net_.wrap()) {
            plus = want > cur;
        } else {
            int distPlus = (want - cur + k) % k;
            plus = distPlus <= k - distPlus;
        }
        if (net_.wrap()) {
            bool crossing =
                (plus && cur == k - 1) || (!plus && cur == 0);
            if (crossing)
                pkt.routeScratch |= (1u << d);
        }
        candidates.push_back( // nifdy:alloc-ok(router scratch keeps its capacity)
            plus ? net_.portPlus(d) : net_.portMinus(d));
        return false;
    }
    candidates.push_back(net_.ejectPort()); // nifdy:alloc-ok(router scratch keeps its capacity)
    return false;
}

unsigned
MeshRouter::vcMaskForHop(int outPort, Packet &pkt)
{
    if (outPort == net_.ejectPort())
        return ~0u;
    if (net_.wrap()) {
        int d = outPort / 2;
        // Dateline scheme: once a packet crosses (or is crossing)
        // the wraparound link of dimension d, it moves to the
        // second VC.
        return (pkt.routeScratch >> d) & 1 ? 0b10u : 0b01u;
    }
    if (net_.adaptive()) {
        // VC 0 is the dimension-order escape channel; VC 1 (and
        // above) are fully adaptive. The escape channel may only be
        // taken along the dimension-order port, and a packet that
        // took it once stays in order for the rest of its path.
        if (pkt.routeScratch & escapedBit)
            return 0b01u;
        unsigned adaptiveMask = ~1u;
        return outPort == dorPort(pkt) ? ~0u : adaptiveMask;
    }
    return ~0u;
}

void
MeshRouter::onAllocate(Packet &pkt, int outPort, int subVc)
{
    if (net_.adaptive() && subVc == 0 && outPort != net_.ejectPort())
        pkt.routeScratch |= escapedBit;
}

MeshNetwork::MeshNetwork(const NetworkParams &params) : Network(params)
{
    fatal_if(params_.dims.empty(), "mesh needs dimension sizes");
    long prod = 1;
    for (int s : params_.dims) {
        fatal_if(s < 2, "mesh dimension size must be >= 2");
        prod *= s;
    }
    fatal_if(prod != params_.numNodes,
             "mesh dims do not multiply to numNodes");
    fatal_if(params_.wrap && params_.vcsPerClass < 2,
             "torus requires >= 2 VCs per class (dateline)");
    int stride = 1;
    for (int s : params_.dims) {
        stride_.push_back(stride);
        stride *= s;
    }
    build();
}

std::string
MeshNetwork::name() const
{
    std::string out = params_.wrap ? "torus" : "mesh";
    for (std::size_t i = 0; i < params_.dims.size(); ++i)
        out += (i ? "x" : "-") + std::to_string(params_.dims[i]);
    if (params_.adaptiveRouting)
        out += "-adaptive";
    return out;
}

std::vector<int>
MeshNetwork::coordOf(NodeId n) const
{
    std::vector<int> c(numDims());
    for (int d = 0; d < numDims(); ++d)
        c[d] = coord(n, d);
    return c;
}

NodeId
MeshNetwork::nodeOf(const std::vector<int> &coord) const
{
    NodeId n = 0;
    for (int d = numDims() - 1; d >= 0; --d)
        n = n * params_.dims[d] + coord[d];
    return n;
}

int
MeshNetwork::distance(NodeId a, NodeId b) const
{
    auto ca = coordOf(a);
    auto cb = coordOf(b);
    int total = 0;
    for (int d = 0; d < numDims(); ++d) {
        int diff = std::abs(ca[d] - cb[d]);
        if (params_.wrap)
            diff = std::min(diff, params_.dims[d] - diff);
        total += diff;
    }
    return total;
}

void
MeshNetwork::build()
{
    const int P = params_.numNodes;
    const int D = numDims();

    for (int n = 0; n < P; ++n)
        routers_.push_back(
            std::make_unique<MeshRouter>(n, routerParams(n), *this));

    ports_.resize(P);

    // Per node, per dimension: the outgoing plus/minus channels.
    std::vector<std::vector<Channel *>> outPlus(P), outMinus(P);

    // Pass A: create channels and output ports in canonical order.
    for (int n = 0; n < P; ++n) {
        Router &r = *routers_[n];
        outPlus[n].resize(D);
        outMinus[n].resize(D);
        for (int d = 0; d < D; ++d) {
            outPlus[n][d] = newChannel();
            outMinus[n][d] = newChannel();
            int pp = r.addOutPort(outPlus[n][d], params_.bufDepth);
            int pm = r.addOutPort(outMinus[n][d], params_.bufDepth);
            panic_if(pp != portPlus(d) || pm != portMinus(d),
                     "mesh port numbering broke");
        }
        Channel *eject = newNicChannel();
        int pe = r.addOutPort(eject, params_.ejectDepth);
        panic_if(pe != ejectPort(), "mesh eject port numbering broke");
        ports_[n].eject = eject;
    }

    // Pass B: wire inputs. Input 2d comes from the plus neighbour,
    // input 2d+1 from the minus neighbour, then the injection port.
    auto neighbor = [&](int n, int d, int dir) -> int {
        auto c = coordOf(n);
        int k = params_.dims[d];
        int nc = c[d] + dir;
        if (params_.wrap) {
            nc = (nc + k) % k;
        } else if (nc < 0 || nc >= k) {
            return -1;
        }
        c[d] = nc;
        return nodeOf(c);
    };

    for (int n = 0; n < P; ++n) {
        Router &r = *routers_[n];
        for (int d = 0; d < D; ++d) {
            int np = neighbor(n, d, +1);
            int nm = neighbor(n, d, -1);
            // The plus neighbour reaches us through its minus-out
            // channel; a boundary gets a dummy (never-pushed) feed.
            Channel *fromPlus = np >= 0 ? outMinus[np][d] : newChannel();
            Channel *fromMinus = nm >= 0 ? outPlus[nm][d] : newChannel();
            r.addInPort(fromPlus);
            r.addInPort(fromMinus);
        }
        Channel *inject = newNicChannel();
        int pi = r.addInPort(inject);
        panic_if(pi != injectPort(), "mesh inject port numbering broke");
        ports_[n].inject = inject;
        ports_[n].injectDepth = params_.bufDepth;
    }
}

} // namespace nifdy
