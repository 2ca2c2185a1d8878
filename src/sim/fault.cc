#include "sim/fault.hh"

#include <algorithm>
#include <sstream>

#include "net/packet.hh"
#include "net/router.hh"
#include "net/topology.hh"
#include "sim/config.hh"
#include "sim/log.hh"

namespace nifdy
{

namespace
{

/**
 * Parse one outage window "A@FROM[+DUR]" or "A.B@FROM[+DUR]". The
 * leading ids land in @p ids (one or two of them); FROM/DUR in the
 * window fields. Omitting +DUR means permanent (until = 0).
 */
void
parseWindowSpec(const std::string &spec, const char *key,
                std::vector<long> &ids, Cycle &from, Cycle &until)
{
    auto bad = [&]() {
        fatal("%s: malformed outage spec '%s' "
              "(want ID[.ID]@FROM[+DUR])",
              key, spec.c_str());
    };
    std::size_t at = spec.find('@');
    if (at == std::string::npos || at == 0)
        bad();
    std::string head = spec.substr(0, at);
    std::string tail = spec.substr(at + 1);
    ids.clear();
    std::size_t pos = 0;
    while (pos < head.size()) {
        std::size_t dot = head.find('.', pos);
        std::string part = head.substr(
            pos, dot == std::string::npos ? std::string::npos
                                          : dot - pos);
        if (part.empty())
            bad();
        char *end = nullptr;
        long v = std::strtol(part.c_str(), &end, 10);
        if (!end || *end != '\0')
            bad();
        ids.push_back(v);
        pos = dot == std::string::npos ? head.size() : dot + 1;
    }
    std::size_t plus = tail.find('+');
    std::string fromStr =
        plus == std::string::npos ? tail : tail.substr(0, plus);
    char *end = nullptr;
    long long f = std::strtoll(fromStr.c_str(), &end, 10);
    if (!end || *end != '\0' || f < 0)
        bad();
    from = static_cast<Cycle>(f);
    until = 0;
    if (plus != std::string::npos) {
        std::string durStr = tail.substr(plus + 1);
        long long d = std::strtoll(durStr.c_str(), &end, 10);
        if (!end || *end != '\0' || d <= 0)
            bad();
        until = from + static_cast<Cycle>(d);
    }
}

/** Split a comma-separated list, skipping empty entries. */
std::vector<std::string>
splitList(const std::string &s)
{
    std::vector<std::string> out;
    std::size_t pos = 0;
    while (pos <= s.size()) {
        std::size_t comma = s.find(',', pos);
        std::string part = s.substr(
            pos, comma == std::string::npos ? std::string::npos
                                            : comma - pos);
        if (!part.empty())
            out.push_back(part);
        pos = comma == std::string::npos ? s.size() + 1 : comma + 1;
    }
    return out;
}

} // namespace

//===------------------------------------------------------------===//
// FaultPlan
//===------------------------------------------------------------===//

bool
FaultPlan::active() const
{
    return dropProb > 0 || corruptProb > 0 || !linkDown.empty() ||
           !portDown.empty() || randomDownLinks > 0;
}

void
FaultPlan::validate() const
{
    fatal_if(dropProb < 0 || dropProb > 1.0,
             "fault.dropProb must be in [0, 1]");
    fatal_if(corruptProb < 0 || corruptProb > 1.0,
             "fault.corruptProb must be in [0, 1]");
    fatal_if(maxDrops < -1, "fault.maxDrops must be >= -1");
    fatal_if(randomDownLinks < 0, "fault.downLinks must be >= 0");
    for (const LinkFault &lf : linkDown) {
        fatal_if(lf.link < 0, "fault.linkDown: negative link index");
        fatal_if(lf.until != 0 && lf.until <= lf.from,
                 "fault.linkDown: empty outage window");
    }
    for (const PortFault &pf : portDown) {
        fatal_if(pf.router < 0 || pf.port < 0,
                 "fault.portDown: negative router/port index");
        fatal_if(pf.until != 0 && pf.until <= pf.from,
                 "fault.portDown: empty outage window");
    }
}

FaultPlan
FaultPlan::fromConfig(const Config &conf)
{
    FaultPlan plan;
    std::string linkDown;
    std::string portDown;
    conf.knob("fault.dropProb", plan.dropProb,
              "per-hop in-fabric packet drop probability, [0, 1]");
    conf.knob("fault.corruptProb", plan.corruptProb,
              "per-hop packet corruption probability, [0, 1]");
    conf.knob("fault.maxDrops", plan.maxDrops,
              "stop injecting after N packets hit (-1 = unlimited)");
    conf.knob("fault.seed", plan.seed,
              "fault RNG seed (0 = experiment seed)");
    conf.knob("fault.linkDown", linkDown,
              "LINK@FROM[+DUR],... link outage windows");
    conf.knob("fault.portDown", portDown,
              "ROUTER.PORT@FROM[+DUR],... router output-port failures");
    conf.knob("fault.downLinks", plan.randomDownLinks,
              "additionally down N random internal links");
    conf.knob("fault.downFrom", plan.randomDownFrom,
              "random link outages start cycle");
    conf.knob("fault.downFor", plan.randomDownFor,
              "random link outage duration (0 = permanent)");

    for (const std::string &spec : splitList(linkDown)) {
        std::vector<long> ids;
        LinkFault lf;
        parseWindowSpec(spec, "fault.linkDown", ids, lf.from,
                        lf.until);
        fatal_if(ids.size() != 1,
                 "fault.linkDown: want one link index in '%s'",
                 spec.c_str());
        lf.link = static_cast<int>(ids[0]);
        plan.linkDown.push_back(lf);
    }
    for (const std::string &spec : splitList(portDown)) {
        std::vector<long> ids;
        PortFault pf;
        parseWindowSpec(spec, "fault.portDown", ids, pf.from,
                        pf.until);
        fatal_if(ids.size() != 2,
                 "fault.portDown: want ROUTER.PORT in '%s'",
                 spec.c_str());
        pf.router = static_cast<int>(ids[0]);
        pf.port = static_cast<int>(ids[1]);
        plan.portDown.push_back(pf);
    }
    plan.validate();
    return plan;
}

std::string
FaultPlan::toString() const
{
    std::ostringstream os;
    os << "fault plan: drop=" << dropProb
       << " corrupt=" << corruptProb;
    if (maxDrops >= 0)
        os << " maxDrops=" << maxDrops;
    os << " linkDown=" << linkDown.size()
       << " portDown=" << portDown.size();
    if (randomDownLinks > 0)
        os << " randomDown=" << randomDownLinks << "@"
           << randomDownFrom << "+" << randomDownFor;
    return os.str();
}

//===------------------------------------------------------------===//
// NodeFaultPlan
//===------------------------------------------------------------===//

bool
NodeFaultPlan::active() const
{
    return !crashes.empty() || randomCrashes > 0;
}

void
NodeFaultPlan::validate() const
{
    fatal_if(randomCrashes < 0, "node.randomCrashes must be >= 0");
    fatal_if(randomCrashes > 0 && randomCrashSpan < 1,
             "node.crashSpan must be >= 1 when node.randomCrashes "
             "is set");
    for (const NodeFault &nf : crashes) {
        fatal_if(nf.node < 0, "node.crash: negative node id");
        fatal_if(nf.restartAt != 0 && nf.restartAt <= nf.crashAt,
                 "node.crash: node %d restart at %llu not after its "
                 "crash at %llu",
                 nf.node,
                 static_cast<unsigned long long>(nf.restartAt),
                 static_cast<unsigned long long>(nf.crashAt));
        for (const NodeFault &other : crashes)
            fatal_if(&nf != &other && nf.node == other.node,
                     "node.crash: node %d scheduled to crash twice",
                     nf.node);
    }
}

NodeFaultPlan
NodeFaultPlan::fromConfig(const Config &conf)
{
    NodeFaultPlan plan;
    std::string crash;
    conf.knob("node.crash", crash,
              "NODE@FROM[+DUR],... fail-stop schedules (+DUR = downtime "
              "before restart; none = stays dead)");
    conf.knob("node.randomCrashes", plan.randomCrashes,
              "crash N distinct random nodes");
    conf.knob("node.crashFrom", plan.randomCrashFrom,
              "random crash-cycle window start");
    conf.knob("node.crashSpan", plan.randomCrashSpan,
              "random crash-cycle window length");
    conf.knob("node.restartAfter", plan.randomRestartAfter,
              "downtime before each random crash restarts (0 = stays "
              "dead)");
    conf.knob("node.seed", plan.seed,
              "endpoint-fault RNG seed (0 = experiment seed)");

    for (const std::string &spec : splitList(crash)) {
        std::vector<long> ids;
        NodeFault nf;
        Cycle until = 0;
        parseWindowSpec(spec, "node.crash", ids, nf.crashAt, until);
        fatal_if(ids.size() != 1,
                 "node.crash: want one node id in '%s'",
                 spec.c_str());
        nf.node = static_cast<NodeId>(ids[0]);
        nf.restartAt = until; // 0 = never restarts
        plan.crashes.push_back(nf);
    }
    plan.validate();
    return plan;
}

std::vector<NodeFault>
NodeFaultPlan::compile(int numNodes,
                       std::uint64_t experimentSeed) const
{
    validate();
    std::vector<NodeFault> out = crashes;
    std::vector<bool> doomed(static_cast<std::size_t>(numNodes),
                             false);
    for (const NodeFault &nf : out) {
        fatal_if(nf.node >= numNodes,
                 "node.crash: node %d out of range [0, %d)", nf.node,
                 numNodes);
        doomed[static_cast<std::size_t>(nf.node)] = true;
    }
    if (randomCrashes > 0) {
        int alive = 0;
        for (int n = 0; n < numNodes; ++n)
            alive += doomed[static_cast<std::size_t>(n)] ? 0 : 1;
        fatal_if(randomCrashes > alive,
                 "node.randomCrashes: %d exceeds the %d nodes not "
                 "already scheduled",
                 randomCrashes, alive);
        Rng pick(seed ? seed : experimentSeed, 0xdead);
        for (int i = 0; i < randomCrashes; ++i) {
            NodeId victim;
            do {
                victim = static_cast<NodeId>(pick.nextBounded(
                    static_cast<std::uint64_t>(numNodes)));
            } while (doomed[static_cast<std::size_t>(victim)]);
            doomed[static_cast<std::size_t>(victim)] = true;
            NodeFault nf;
            nf.node = victim;
            nf.crashAt = randomCrashFrom +
                         static_cast<Cycle>(pick.nextBounded(
                             static_cast<std::uint64_t>(
                                 randomCrashSpan)));
            nf.restartAt = randomRestartAfter
                               ? nf.crashAt + randomRestartAfter
                               : 0;
            out.push_back(nf);
        }
    }
    std::sort(out.begin(), out.end(),
              [](const NodeFault &a, const NodeFault &b) {
                  return a.crashAt != b.crashAt
                             ? a.crashAt < b.crashAt
                             : a.node < b.node;
              });
    return out;
}

std::string
NodeFaultPlan::toString() const
{
    std::ostringstream os;
    os << "node fault plan: explicit=" << crashes.size();
    if (randomCrashes > 0)
        os << " random=" << randomCrashes << "@" << randomCrashFrom
           << "+" << randomCrashSpan << " restartAfter="
           << randomRestartAfter;
    return os.str();
}

//===------------------------------------------------------------===//
// NodeFaultDriver
//===------------------------------------------------------------===//

NodeFaultDriver::NodeFaultDriver(const NodeFaultPlan &plan,
                                 int numNodes,
                                 std::uint64_t experimentSeed,
                                 Handler handler)
    : schedule_(plan.compile(numNodes, experimentSeed)),
      handler_(std::move(handler))
{
    panic_if(!handler_, "NodeFaultDriver needs a handler");
    for (const NodeFault &nf : schedule_) {
        events_.push_back({nf.crashAt, nf.node, false});
        if (nf.restartAt)
            events_.push_back({nf.restartAt, nf.node, true});
    }
    std::sort(events_.begin(), events_.end(),
              [](const Event &a, const Event &b) {
                  return a.at != b.at ? a.at < b.at
                                      : a.node < b.node;
              });
    firedAll_ = events_.empty();
}

NIFDY_HOT void
NodeFaultDriver::step(Cycle now)
{
    while (next_ < events_.size() && events_[next_].at <= now) {
        const Event &ev = events_[next_++];
        handler_(ev.node, ev.restart, now);
    }
    firedAll_ = next_ == events_.size();
}

//===------------------------------------------------------------===//
// FaultInjector
//===------------------------------------------------------------===//

FaultInjector::FaultInjector(const FaultPlan &plan,
                             std::uint64_t experimentSeed,
                             PacketPool &pool)
    : plan_(plan), seed_(plan.seed ? plan.seed : experimentSeed),
      pool_(pool)
{
    plan_.validate();
}

void
FaultInjector::attachNetwork(Network &net)
{
    internal_.clear();
    for (int i = 0; i < net.numInternalChannels(); ++i)
        internal_.insert(&net.internalChannel(i));

    routerRng_.clear();
    routerRng_.reserve(static_cast<std::size_t>(net.numRouters()));
    for (int r = 0; r < net.numRouters(); ++r)
        routerRng_.emplace_back(seed_, 0xfa57u + r);

    for (const LinkFault &lf : plan_.linkDown) {
        fatal_if(lf.link >= net.numInternalChannels(),
                 "fault.linkDown: link %d out of range [0, %d)",
                 lf.link, net.numInternalChannels());
        net.internalChannel(lf.link).addDownWindow(lf.from, lf.until);
        ++linksDowned_;
    }
    for (const PortFault &pf : plan_.portDown) {
        fatal_if(pf.router >= net.numRouters(),
                 "fault.portDown: router %d out of range [0, %d)",
                 pf.router, net.numRouters());
        Router &r = net.router(pf.router);
        fatal_if(pf.port >= r.numOutPorts(),
                 "fault.portDown: router %d has no output port %d",
                 pf.router, pf.port);
        r.outChannel(pf.port)->addDownWindow(pf.from, pf.until);
        ++linksDowned_;
    }
    if (plan_.randomDownLinks > 0) {
        int n = net.numInternalChannels();
        fatal_if(plan_.randomDownLinks > n,
                 "fault.downLinks: %d exceeds the %d internal links",
                 plan_.randomDownLinks, n);
        // Partial Fisher-Yates over the internal-link indices.
        Rng pick(seed_, 0xd0fc);
        std::vector<int> idx(static_cast<std::size_t>(n));
        for (int i = 0; i < n; ++i)
            idx[static_cast<std::size_t>(i)] = i;
        Cycle until = plan_.randomDownFor
                          ? plan_.randomDownFrom + plan_.randomDownFor
                          : 0;
        for (int i = 0; i < plan_.randomDownLinks; ++i) {
            std::size_t j =
                static_cast<std::size_t>(i) +
                pick.nextBounded(static_cast<std::uint64_t>(n - i));
            std::swap(idx[static_cast<std::size_t>(i)], idx[j]);
            net.internalChannel(idx[static_cast<std::size_t>(i)])
                .addDownWindow(plan_.randomDownFrom, until);
            ++linksDowned_;
        }
    }

    if (plan_.dropProb > 0 || plan_.corruptProb > 0)
        for (int r = 0; r < net.numRouters(); ++r)
            net.router(r).setFaultInjector(this);
}

bool
FaultInjector::budgetLeft() const
{
    if (plan_.maxDrops < 0)
        return true;
    return pktsDropped_ + killing_.size() + pktsCorrupted_ <
           static_cast<std::uint64_t>(plan_.maxDrops);
}

void
FaultInjector::finishKill(Packet *pkt, int routerId, Cycle now)
{
    ++pktsDropped_;
    probes_->fabricDrop(*pkt, routerId, now, "fault-injected fabric drop");
    pool_.release(pkt);
}

bool
FaultInjector::filterArrival(int routerId, Channel *ch,
                             const Flit &flit, Cycle now)
{
    if (internal_.find(ch) == internal_.end())
        return false; // NIC attach links carry no in-fabric faults

    KillKey key{ch, flit.vc};
    auto it = killing_.find(key);
    if (it != killing_.end()) {
        // Mid-kill: within one VC the wormhole guarantees every flit
        // up to the tail belongs to the condemned packet.
        panic_if(flit.pkt != it->second,
                 "fault kill interleaved with another packet on "
                 "router %d (%s)",
                 routerId, flit.pkt->toString().c_str());
        ++flitsDropped_;
        if (flit.tail) {
            Packet *victim = it->second;
            killing_.erase(it);
            finishKill(victim, routerId, now);
        }
        return true;
    }

    if (!flit.head)
        return false;

    Rng &rng = routerRng_.at(static_cast<std::size_t>(routerId));
    if (plan_.dropProb > 0 && budgetLeft() &&
        rng.chance(plan_.dropProb)) {
        ++flitsDropped_;
        if (flit.tail) {
            finishKill(flit.pkt, routerId, now); // single-flit packet
        } else {
            killing_[key] = flit.pkt;
        }
        return true;
    }
    if (plan_.corruptProb > 0 && budgetLeft() && !flit.pkt->corrupted &&
        rng.chance(plan_.corruptProb)) {
        flit.pkt->corrupted = true;
        ++pktsCorrupted_;
        probes_->corrupt(*flit.pkt, routerId, now);
    }
    return false;
}

} // namespace nifdy
