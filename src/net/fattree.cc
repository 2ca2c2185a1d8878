#include "net/fattree.hh"

#include "sim/log.hh"

namespace nifdy
{

FatTreeRouter::FatTreeRouter(int id, const RouterParams &rp,
                             const FatTreeNetwork &net, int level,
                             long subtree, int upPorts)
    : Router(id, rp), net_(net), level_(level), subtree_(subtree),
      upPorts_(upPorts)
{
}

NIFDY_HOT bool
FatTreeRouter::route(int inPort, Packet &pkt,
                     std::vector<int> &candidates)
{
    (void)inPort;
    const int k = net_.arity();
    const long span = net_.subtreeSpan(level_);
    const long base = subtree_ * span;
    if (pkt.dst >= base && pkt.dst < base + span) {
        // Descend: the down port is the destination's digit at this
        // level (child subtrees cover span/k nodes each).
        long digit = (pkt.dst - base) / (span / k);
        candidates.push_back(static_cast<int>(digit)); // nifdy:alloc-ok(router scratch keeps its capacity)
        return false;
    }
    // Ascend: any parent will do; let the switch pick adaptively.
    panic_if(upPorts_ == 0, "fat tree top router can't ascend");
    for (int q = 0; q < upPorts_; ++q)
        candidates.push_back(k + q); // nifdy:alloc-ok(router scratch keeps its capacity)
    return true;
}

FatTreeNetwork::FatTreeNetwork(const NetworkParams &params)
    : Network(params)
{
    levels_ = static_cast<int>(params_.upArity.size());
    fatal_if(levels_ < 1, "fat tree needs at least one level");
    long n = 1;
    for (int l = 0; l < levels_; ++l)
        n *= k_;
    fatal_if(n != params_.numNodes,
             "fat tree: numNodes %d != %d^%d", params_.numNodes, k_,
             levels_);

    routersPerLevel_.resize(levels_);
    routersPerSubtree_.resize(levels_);
    routersPerLevel_[0] = params_.numNodes / k_;
    routersPerSubtree_[0] = 1;
    for (int l = 1; l < levels_; ++l) {
        int r = params_.upArity[l - 1];
        fatal_if(r < 1 || r > k_, "fat tree up arity must be in [1,%d]",
                 k_);
        fatal_if((routersPerLevel_[l - 1] * r) % k_ != 0,
                 "fat tree level %d does not divide evenly", l);
        routersPerLevel_[l] = routersPerLevel_[l - 1] * r / k_;
        routersPerSubtree_[l] = routersPerSubtree_[l - 1] * r;
    }
    build();
}

std::string
FatTreeNetwork::name() const
{
    std::string out = "fattree";
    if (params_.storeAndForward)
        out += "-saf";
    bool reduced = false;
    for (int l = 0; l + 1 < levels_; ++l)
        if (params_.upArity[l] < k_)
            reduced = true;
    if (reduced)
        out = "cm5-" + out;
    return out + "-" + std::to_string(params_.numNodes);
}

long
FatTreeNetwork::subtreeSpan(int l) const
{
    long span = k_;
    for (int i = 0; i < l; ++i)
        span *= k_;
    return span;
}

int
FatTreeNetwork::distance(NodeId a, NodeId b) const
{
    if (a == b)
        return 0;
    // Find the lowest common ancestor level: the highest base-k
    // digit where the two node numbers differ.
    int h = 0;
    long da = a;
    long db = b;
    for (int l = 0; l < levels_; ++l) {
        if (da % k_ != db % k_)
            h = l;
        da /= k_;
        db /= k_;
    }
    // node->L0 is one hop, up to level h is h hops, then symmetric.
    return 2 * (h + 1);
}

void
FatTreeNetwork::build()
{
    const int P = params_.numNodes;
    const int k = k_;

    // Router construction, level by level; ids are globally unique.
    std::vector<std::vector<FatTreeRouter *>> lvl(levels_);
    int nextId = 0;
    for (int l = 0; l < levels_; ++l) {
        int up = (l == levels_ - 1) ? 0 : params_.upArity[l];
        for (int i = 0; i < routersPerLevel_[l]; ++i) {
            long subtree = i / routersPerSubtree_[l];
            auto r = std::make_unique<FatTreeRouter>(
                nextId, routerParams(nextId), *this, l, subtree, up);
            ++nextId;
            lvl[l].push_back(r.get());
            routers_.push_back(std::move(r));
        }
    }

    // Channel grids, indexed from the child side.
    // upChan[l][i][q]: level-l router i, up port q (toward parent).
    // downChan[l][i][q]: arriving at level-l router i's up input q.
    std::vector<std::vector<std::vector<Channel *>>> upChan(levels_);
    std::vector<std::vector<std::vector<Channel *>>> downChan(levels_);
    for (int l = 0; l + 1 < levels_; ++l) {
        int r = params_.upArity[l];
        upChan[l].resize(routersPerLevel_[l]);
        downChan[l].resize(routersPerLevel_[l]);
        for (int i = 0; i < routersPerLevel_[l]; ++i) {
            for (int q = 0; q < r; ++q) {
                upChan[l][i].push_back(newChannel());
                downChan[l][i].push_back(newChannel());
            }
        }
    }

    ports_.resize(P);
    std::vector<Channel *> inject(P), eject(P);
    for (int n = 0; n < P; ++n) {
        inject[n] = newNicChannel();
        eject[n] = newNicChannel();
        ports_[n].inject = inject[n];
        ports_[n].eject = eject[n];
        ports_[n].injectDepth = params_.bufDepth;
    }

    // Maps a parent router (level l, within-subtree index j, child
    // subtree digit c) to the (child router, child up-port) pair.
    auto childOf = [&](int l, long t, int j, int c) {
        int rDown = params_.upArity[l - 1];
        int childSub = static_cast<int>(t) * k + c;
        int childIdx = childSub * routersPerSubtree_[l - 1] + j / rDown;
        return std::pair<int, int>(childIdx, j % rDown);
    };

    // Attach ports in canonical order: down outs, up outs, then
    // down-side ins (from children), up-side ins (from parents).
    for (int l = 0; l < levels_; ++l) {
        int up = (l == levels_ - 1) ? 0 : params_.upArity[l];
        for (int i = 0; i < routersPerLevel_[l]; ++i) {
            Router &r = *lvl[l][i];
            long t = i / routersPerSubtree_[l];
            int j = i % routersPerSubtree_[l];
            // Down output ports (0..k-1).
            for (int c = 0; c < k; ++c) {
                if (l == 0) {
                    r.addOutPort(eject[i * k + c], params_.ejectDepth);
                } else {
                    auto [ci, q] = childOf(l, t, j, c);
                    r.addOutPort(downChan[l - 1][ci][q],
                                 params_.bufDepth);
                }
            }
            // Up output ports (k..k+up-1).
            for (int q = 0; q < up; ++q)
                r.addOutPort(upChan[l][i][q], params_.bufDepth);
            // Down input ports (0..k-1).
            for (int c = 0; c < k; ++c) {
                if (l == 0) {
                    r.addInPort(inject[i * k + c]);
                } else {
                    auto [ci, q] = childOf(l, t, j, c);
                    r.addInPort(upChan[l - 1][ci][q]);
                }
            }
            // Up input ports.
            for (int q = 0; q < up; ++q)
                r.addInPort(downChan[l][i][q]);
        }
    }
}

} // namespace nifdy
