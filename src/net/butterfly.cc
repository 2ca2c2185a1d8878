#include "net/butterfly.hh"

#include <algorithm>

#include "sim/log.hh"
#include "sim/rng.hh"

namespace nifdy
{

ButterflyRouter::ButterflyRouter(int id, const RouterParams &rp,
                                 const ButterflyNetwork &net, int stage)
    : Router(id, rp), net_(net), stage_(stage)
{
}

NIFDY_HOT bool
ButterflyRouter::route(int inPort, Packet &pkt,
                       std::vector<int> &candidates)
{
    (void)inPort;
    int dir = net_.routeDigit(pkt.dst, stage_);
    if (stage_ == net_.stages() - 1) {
        // Final stage: ejection ports are indexed by the last digit.
        candidates.push_back(dir); // nifdy:alloc-ok(router scratch keeps its capacity)
        return false;
    }
    int d = net_.dilation();
    for (int dup = 0; dup < d; ++dup)
        candidates.push_back(dir * d + dup); // nifdy:alloc-ok(router scratch keeps its capacity)
    return d > 1;
}

ButterflyNetwork::ButterflyNetwork(const NetworkParams &params)
    : Network(params)
{
    const int k = params_.radix;
    fatal_if(k < 2, "butterfly radix must be >= 2");
    fatal_if(params_.dilation < 1, "butterfly dilation must be >= 1");
    long n = 1;
    stages_ = 0;
    while (n < params_.numNodes) {
        n *= k;
        ++stages_;
    }
    fatal_if(n != params_.numNodes,
             "butterfly: numNodes %d is not a power of radix %d",
             params_.numNodes, k);
    routersPerStage_ = params_.numNodes / k;
    build();
}

std::string
ButterflyNetwork::name() const
{
    return (params_.dilation > 1 ? "multibutterfly-" : "butterfly-") +
           std::to_string(params_.numNodes);
}

int
ButterflyNetwork::distance(NodeId a, NodeId b) const
{
    (void)a;
    (void)b;
    // Indirect network: every path crosses all stages.
    return stages_;
}

int
ButterflyNetwork::routeDigit(NodeId dst, int stage) const
{
    // Stage s consumes destination digit (stages-1-s), MSB first.
    long v = dst;
    for (int i = 0; i < stages_ - 1 - stage; ++i)
        v /= params_.radix;
    return static_cast<int>(v % params_.radix);
}

void
ButterflyNetwork::build()
{
    const int P = params_.numNodes;
    const int k = params_.radix;
    const int d = params_.dilation;
    const int M = routersPerStage_;
    Rng wiring(params_.seed, 0xb77e);

    for (int s = 0; s < stages_; ++s)
        for (int r = 0; r < M; ++r) {
            int id = s * M + r;
            routers_.push_back(std::make_unique<ButterflyRouter>(
                id, routerParams(id), *this, s));
        }
    auto at = [&](int s, int r) -> Router & {
        return *routers_[s * M + r];
    };

    // inter[s][r][port]: channel leaving stage-s router r via output
    // port index (dir * d + dup), landing somewhere in stage s+1.
    // dest[s][r][port]: the receiving stage-(s+1) router.
    std::vector<std::vector<std::vector<Channel *>>> inter(stages_ - 1);
    std::vector<std::vector<std::vector<int>>> dest(stages_ - 1);
    for (int s = 0; s + 1 < stages_; ++s) {
        inter[s].assign(M, std::vector<Channel *>(k * d, nullptr));
        dest[s].assign(M, std::vector<int>(k * d, -1));
        // Group of routers at stage s sharing routing history:
        // routers whose high digits (positions stages-2 .. stages-1-s)
        // are equal. Group size shrinks by k per stage.
        long groupSize = 1;
        for (int i = 0; i < stages_ - 1 - s; ++i)
            groupSize *= k;
        long numGroups = M / groupSize;
        long targetSize = groupSize / k;
        for (long g = 0; g < numGroups; ++g) {
            for (int dir = 0; dir < k; ++dir) {
                // Sources: every router in group g, dup channels per
                // router. Targets: the stage-(s+1) group reached by
                // appending digit dir; each target router takes k*d
                // incoming links.
                std::vector<int> targets;
                long tBase = g * groupSize + dir * targetSize;
                for (long t = 0; t < targetSize; ++t)
                    for (int slot = 0; slot < k * d; ++slot)
                        targets.push_back(
                            static_cast<int>(tBase + t));
                if (d > 1) {
                    // Multibutterfly: randomized wiring.
                    for (std::size_t i = targets.size(); i > 1; --i)
                        std::swap(targets[i - 1],
                                  targets[wiring.nextBounded(i)]);
                }
                std::size_t next = 0;
                for (long j = 0; j < groupSize; ++j) {
                    int r = static_cast<int>(g * groupSize + j);
                    for (int dup = 0; dup < d; ++dup) {
                        Channel *ch = newChannel();
                        inter[s][r][dir * d + dup] = ch;
                        dest[s][r][dir * d + dup] = targets[next++];
                    }
                }
            }
        }
    }

    // Node attach channels.
    ports_.resize(P);
    for (int n = 0; n < P; ++n) {
        ports_[n].inject = newNicChannel();
        ports_[n].eject = newNicChannel();
        ports_[n].injectDepth = params_.bufDepth;
    }

    // Output ports in canonical order, then input ports.
    for (int s = 0; s < stages_; ++s) {
        for (int r = 0; r < M; ++r) {
            Router &rt = at(s, r);
            if (s + 1 < stages_) {
                for (int port = 0; port < k * d; ++port)
                    rt.addOutPort(inter[s][r][port], params_.bufDepth);
            } else {
                for (int c = 0; c < k; ++c)
                    rt.addOutPort(ports_[r * k + c].eject,
                                  params_.ejectDepth);
            }
        }
    }
    // Inputs: stage 0 takes injection links; later stages take the
    // inter-stage channels aimed at them (any arrival order of port
    // indices is fine for inputs).
    for (int r = 0; r < M; ++r)
        for (int c = 0; c < k; ++c)
            at(0, r).addInPort(ports_[r * k + c].inject);
    for (int s = 0; s + 1 < stages_; ++s)
        for (int r = 0; r < M; ++r)
            for (int port = 0; port < k * d; ++port)
                at(s + 1, dest[s][r][port])
                    .addInPort(inter[s][r][port]);

    // Sanity: every non-first stage router has exactly k*d inputs.
    for (int s = 1; s < stages_; ++s)
        for (int r = 0; r < M; ++r)
            panic_if(at(s, r).numInPorts() != k * d,
                     "butterfly wiring imbalance at stage %d router %d"
                     " (%d inputs)",
                     s, r, at(s, r).numInPorts());
}

} // namespace nifdy
