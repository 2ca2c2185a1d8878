#include "sim/congestion.hh"

#include <algorithm>
#include <memory>

#include "net/channel.hh"
#include "net/packet.hh"
#include "net/topology.hh"
#include "sim/audit.hh"
#include "sim/log.hh"
#include "sim/report.hh"
#include "sim/trace.hh"

namespace nifdy
{

namespace
{

/** Trace-event names (static storage; taxonomy per DESIGN.md §8). */
constexpr const char *episodeSliceName = "congestion.episode";
constexpr const char *congestedCounterName = "congestion.links.congested";

/**
 * Cumulative conservation: every observed cycle lands in exactly one
 * of busy/idle/stalled for every link, so the per-link sums must
 * equal the observed cycle count at every cycle boundary.
 */
class CongestionConservationChecker : public InvariantChecker
{
  public:
    explicit CongestionConservationChecker(const CongestionObserver *c)
        : c_(c)
    {
    }

    const char *name() const override
    {
        return "congestion-conservation";
    }

    void
    endCycle(Cycle now) override
    {
        (void)now;
        check();
    }

    void finish() override { check(); }

  private:
    void
    check() const
    {
        const std::uint64_t cycles = c_->cyclesObserved();
        for (int i = 0; i < c_->numLinks(); ++i) {
            const CongestionObserver::LinkStats &l = c_->link(i);
            const std::uint64_t sum = l.busy + l.idle + l.stalled;
            if (sum != cycles) {
                fail("congestion accounting leaks cycles on link " +
                     c_->linkLabel(i) + ": " + std::to_string(l.busy) +
                     " busy + " + std::to_string(l.idle) + " idle + " +
                     std::to_string(l.stalled) + " stalled != " +
                     std::to_string(cycles) + " observed");
            }
        }
    }

    const CongestionObserver *c_;
};

} // namespace

void
CongestionConfig::validate() const
{
    fatal_if(window < 1, "congestion.window must be >= 1");
    fatal_if(offFrac <= 0.0 || offFrac > 1.0,
             "congestion.offFrac %f out of (0, 1]", offFrac);
    fatal_if(onFrac < offFrac || onFrac > 1.0,
             "congestion.onFrac %f out of [offFrac, 1]", onFrac);
    fatal_if(aggressorShare <= 0.0 || aggressorShare > 1.0,
             "congestion.aggressorShare %f out of (0, 1]",
             aggressorShare);
    fatal_if(victimSlowdown < 1.0,
             "congestion.victimSlowdown %f must be >= 1",
             victimSlowdown);
}

std::unique_ptr<InvariantChecker>
makeCongestionConservationChecker(const CongestionObserver *obs)
{
    return std::make_unique<CongestionConservationChecker>(obs);
}

CongestionObserver::CongestionObserver(const CongestionConfig &cfg,
                                       int numNodes, Tracer *tracer)
    : cfg_(cfg), tracer_(tracer)
{
    cfg_.validate();
    panic_if(numNodes < 1, "congestion observer needs >= 1 node");
}

void
CongestionObserver::attach(Network &net)
{
    std::vector<Channel *> channels;
    std::vector<std::string> labels;
    channels.reserve(static_cast<std::size_t>(net.numChannels()));
    labels.assign(static_cast<std::size_t>(net.numChannels()), "");
    for (int i = 0; i < net.numChannels(); ++i)
        channels.push_back(&net.channelAt(i));
    // Label by role: NIC attach ports first, then the fabric links
    // in construction order (matching the audit layer's addressing).
    for (NodeId n = 0; n < net.numNodes(); ++n) {
        const Network::NodePorts &p = net.nodePorts(n);
        for (std::size_t i = 0; i < channels.size(); ++i) {
            if (channels[i] == p.inject)
                labels[i] = "inject" + std::to_string(n);
            else if (channels[i] == p.eject)
                labels[i] = "eject" + std::to_string(n);
        }
    }
    for (int k = 0; k < net.numInternalChannels(); ++k) {
        Channel *ch = &net.internalChannel(k);
        for (std::size_t i = 0; i < channels.size(); ++i)
            if (channels[i] == ch)
                labels[i] = "internal" + std::to_string(k);
    }
    for (std::size_t i = 0; i < labels.size(); ++i)
        if (labels[i].empty())
            labels[i] = "chan" + std::to_string(i);
    attachChannels(channels, labels, net.params().flitBytes);
}

void
CongestionObserver::attachChannels(
    const std::vector<Channel *> &channels,
    const std::vector<std::string> &labels, int flitBytes)
{
    panic_if(channels.size() != labels.size(),
             "congestion attach: %zu channels vs %zu labels",
             channels.size(), labels.size());
    panic_if(!links_.empty(), "congestion observer attached twice");
    channels_ = channels;
    labels_ = labels;
    flitBytes_ = flitBytes;
    links_.assign(channels_.size(), LinkStats());
    stallFlag_.assign(channels_.size(), 0);
    linkIndex_.reserve(channels_.size());
    for (std::size_t i = 0; i < channels_.size(); ++i)
        linkIndex_[channels_[i]] = static_cast<int>(i);
}

NIFDY_HOT void
CongestionObserver::step(Cycle now)
{
    if (finished_ || links_.empty())
        return;
    for (std::size_t i = 0; i < links_.size(); ++i) {
        LinkStats &l = links_[i];
        const Channel *ch = channels_[i];
        // Tiling priority: a serializing link is busy even if some
        // other input also failed to claim it this cycle.
        if (ch->busyAt(now)) {
            ++l.busy;
            ++l.winBusy;
        } else if (stallFlag_[i]) {
            ++l.stalled;
            ++l.winStalled;
        } else {
            ++l.idle;
            ++l.winIdle;
        }
        stallFlag_[i] = 0;
        const int occ = ch->inFlight();
        if (occ > l.highWater)
            l.highWater = occ;
    }
    ++cyclesObserved_;
    if (cyclesObserved_ % cfg_.window == 0)
        closeWindow(now);
}

NIFDY_HOT void
CongestionObserver::onLinkStall(const Channel *ch, Cycle now)
{
    (void)now;
    if (finished_ || links_.empty())
        return;
    auto it = linkIndex_.find(ch);
    if (it != linkIndex_.end())
        stallFlag_[static_cast<std::size_t>(it->second)] = 1;
}

NIFDY_HOT void
CongestionObserver::onLinkFlit(const Channel *ch, const Flit &flit,
                               Cycle now)
{
    (void)now;
    if (finished_ || links_.empty())
        return;
    auto it = linkIndex_.find(ch);
    if (it == linkIndex_.end())
        return;
    LinkStats &l = links_[static_cast<std::size_t>(it->second)];
    const Packet &pkt = *flit.pkt;
    if (pkt.netClass == NetClass::reply) {
        ++l.replyFlits;
        ++l.winReplyFlits;
    } else {
        ++l.reqFlits;
        ++l.winReqFlits;
    }
    if (pkt.type == PacketType::ack || pkt.ctrlOnly)
        return;
    ++linkFlows_[linkFlowKey(it->second, pkt.src, pkt.dst)] // nifdy:alloc-ok((link,flow) key set fixed after warmup; values zeroed, never erased)
          .winFlits;
}

CongestionObserver::FlowStats &
CongestionObserver::flowFor(const Packet &pkt)
{
    FlowStats &f = flows_[flowKey(pkt.src, pkt.dst)]; // nifdy:alloc-ok(flow set fixed after warmup; entries never erased)
    if (f.src == invalidNode) {
        f.src = pkt.src;
        f.dst = pkt.dst;
    }
    return f;
}

NIFDY_HOT void
CongestionObserver::onInject(const Packet &pkt, Cycle now)
{
    if (finished_ || pkt.type == PacketType::ack || pkt.ctrlOnly)
        return;
    FlowStats &f = flowFor(pkt);
    if (f.firstInject == neverCycle)
        f.firstInject = now;
    ++f.injected;
    ++f.inflight;
}

NIFDY_HOT void
CongestionObserver::onDeliver(const Packet &pkt, Cycle now)
{
    if (finished_ || pkt.type == PacketType::ack || pkt.ctrlOnly)
        return;
    FlowStats &f = flowFor(pkt);
    ++f.delivered;
    f.deliveredFlits += pkt.numFlits(flitBytes_);
    // Retransmission clones inject more than once per delivery, and
    // drops on NICs without retransmission never deliver at all, so
    // "inflight" is really injected-minus-delivered; clamp the
    // decrement so clone deliveries cannot drive it negative.
    if (f.inflight > 0)
        --f.inflight;
    const Cycle lat = now - pkt.createdAt;
    f.latSum += lat;
    if (lat < f.latMin)
        f.latMin = lat;
    f.lastDeliver = now;
}

void
CongestionObserver::emitCongestedCounter(Cycle now)
{
    if (tracer_)
        tracer_->counterSample(congestedCounterName, now, openEpisodes_);
}

void
CongestionObserver::openEpisode(int link, Cycle winStart)
{
    LinkStats &l = links_[static_cast<std::size_t>(link)];
    l.openEpisode = static_cast<int>(episodes_.size());
    ++l.episodes;
    CongestionEpisode e;
    e.link = link;
    e.open = winStart;
    episodes_.push_back(std::move(e));
    ++episodesOpened_;
    ++openEpisodes_;
    emitCongestedCounter(winStart);
}

void
CongestionObserver::closeEpisode(int link, Cycle end)
{
    LinkStats &l = links_[static_cast<std::size_t>(link)];
    CongestionEpisode &e =
        episodes_[static_cast<std::size_t>(l.openEpisode)];
    l.openEpisode = -1;
    e.close = end;
    ++episodesClosed_;
    --openEpisodes_;

    // Harvest this link's per-flow episode contributions. The map
    // iteration order is unordered, but the result is sorted before
    // use, so the output is deterministic.
    const std::uint64_t linkBits = static_cast<std::uint64_t>(
                                       static_cast<std::uint32_t>(link))
                                   << 32;
    for (auto &kv : linkFlows_) { // nifdy:unordered-ok(harvest sorted below; zeroing is order-free)
        if ((kv.first & 0xFFFFFFFF00000000ULL) != linkBits ||
            kv.second.epFlits == 0)
            continue;
        CongestionEpisode::Share s;
        s.src = static_cast<NodeId>((kv.first >> 16) & 0xFFFF);
        s.dst = static_cast<NodeId>(kv.first & 0xFFFF);
        s.flits = kv.second.epFlits;
        kv.second.epFlits = 0;
        e.shares.push_back(std::move(s));
    }
    std::sort(e.shares.begin(), e.shares.end(),
              [](const CongestionEpisode::Share &a,
                 const CongestionEpisode::Share &b) {
                  if (a.flits != b.flits)
                      return a.flits > b.flits;
                  if (a.src != b.src)
                      return a.src < b.src;
                  return a.dst < b.dst;
              });
    for (CongestionEpisode::Share &s : e.shares) {
        s.share = e.totalFlits
                      ? double(s.flits) / double(e.totalFlits)
                      : 0;
        auto it = flows_.find(flowKey(s.src, s.dst));
        FlowStats *f = it == flows_.end() ? nullptr : &it->second;
        s.slowdown = f ? f->slowdown() : 0;
        s.aggressor = s.share >= cfg_.aggressorShare;
        s.victim = !s.aggressor && s.flits > 0 &&
                   s.slowdown >= cfg_.victimSlowdown;
        if (f) {
            if (s.aggressor)
                ++f->aggressorEpisodes;
            if (s.victim)
                ++f->victimEpisodes;
        }
    }

    if (tracer_ && e.close > e.open)
        tracer_->anatomySlice(episodeSliceName, congestionChainId(link),
                              e.open, e.close, link);
    emitCongestedCounter(end);
}

void
CongestionObserver::closeWindow(Cycle now)
{
    const Cycle winStart = now + 1 - cfg_.window;
    ++windowsClosed_;

    // Exact per-window conservation: the three states tile the
    // window with no overlap and no gap.
    for (std::size_t i = 0; i < links_.size(); ++i) {
        const LinkStats &l = links_[i];
        panic_if(l.winBusy + l.winIdle + l.winStalled != cfg_.window,
                 "congestion window on link %s does not tile: "
                 "%llu busy + %llu idle + %llu stalled != %llu",
                 labels_[i].c_str(),
                 static_cast<unsigned long long>(l.winBusy),
                 static_cast<unsigned long long>(l.winIdle),
                 static_cast<unsigned long long>(l.winStalled),
                 static_cast<unsigned long long>(cfg_.window));
    }

    // Detector pass 1: open episodes on links whose stall fraction
    // reached the hysteresis high-water mark this window.
    for (std::size_t i = 0; i < links_.size(); ++i) {
        LinkStats &l = links_[i];
        const double frac =
            double(l.winStalled) / double(cfg_.window);
        if (l.openEpisode < 0 && frac >= cfg_.onFrac)
            openEpisode(static_cast<int>(i), winStart);
    }

    // Pass 2: fold this window's per-(link,flow) flit counts into
    // whatever episode is open on their link; windows on calm links
    // contribute nothing.
    for (auto &kv : linkFlows_) { // nifdy:unordered-ok(commutative accumulate + zeroing, order-free)
        if (kv.second.winFlits == 0)
            continue;
        const int link = static_cast<int>(kv.first >> 32);
        LinkStats &l = links_[static_cast<std::size_t>(link)];
        if (l.openEpisode >= 0) {
            kv.second.epFlits += kv.second.winFlits;
            episodes_[static_cast<std::size_t>(l.openEpisode)]
                .totalFlits += kv.second.winFlits;
        }
        kv.second.winFlits = 0;
    }

    // Pass 3: extend open episodes and close the ones whose stall
    // fraction fell below the hysteresis low-water mark.
    for (std::size_t i = 0; i < links_.size(); ++i) {
        LinkStats &l = links_[i];
        const double frac =
            double(l.winStalled) / double(cfg_.window);
        if (l.openEpisode >= 0) {
            CongestionEpisode &e =
                episodes_[static_cast<std::size_t>(l.openEpisode)];
            ++e.windows;
            if (frac > e.peakStallFrac)
                e.peakStallFrac = frac;
            if (frac < cfg_.offFrac)
                closeEpisode(static_cast<int>(i), now + 1);
        }
        l.winBusy = 0;
        l.winIdle = 0;
        l.winStalled = 0;
        l.winReqFlits = 0;
        l.winReplyFlits = 0;
    }
}

void
CongestionObserver::finish(Cycle now)
{
    if (finished_)
        return;
    finished_ = true;
    // Fold the partial window's contributions into open episodes so
    // the final classification sees all traffic, then close the
    // books on every still-open episode.
    for (auto &kv : linkFlows_) { // nifdy:unordered-ok(commutative accumulate + zeroing, order-free)
        if (kv.second.winFlits == 0)
            continue;
        const int link = static_cast<int>(kv.first >> 32);
        LinkStats &l = links_[static_cast<std::size_t>(link)];
        if (l.openEpisode >= 0) {
            kv.second.epFlits += kv.second.winFlits;
            episodes_[static_cast<std::size_t>(l.openEpisode)]
                .totalFlits += kv.second.winFlits;
        }
        kv.second.winFlits = 0;
    }
    for (std::size_t i = 0; i < links_.size(); ++i)
        if (links_[i].openEpisode >= 0)
            closeEpisode(static_cast<int>(i), now);
}

const CongestionObserver::FlowStats *
CongestionObserver::flow(NodeId src, NodeId dst) const
{
    auto it = flows_.find(flowKey(src, dst));
    return it == flows_.end() ? nullptr : &it->second;
}

int
CongestionObserver::aggressorFlows() const
{
    int n = 0;
    for (const auto &kv : flows_) // nifdy:unordered-ok(commutative count, order-free)
        if (kv.second.aggressorEpisodes > 0)
            ++n;
    return n;
}

int
CongestionObserver::victimFlows() const
{
    int n = 0;
    for (const auto &kv : flows_) // nifdy:unordered-ok(commutative count, order-free)
        if (kv.second.victimEpisodes > 0)
            ++n;
    return n;
}

double
CongestionObserver::maxSlowdown() const
{
    double worst = 0;
    for (const auto &kv : flows_) { // nifdy:unordered-ok(commutative max, order-free)
        const double s = kv.second.slowdown();
        if (s > worst)
            worst = s;
    }
    return worst;
}

std::uint64_t
CongestionObserver::totalBusy() const
{
    std::uint64_t sum = 0;
    for (const LinkStats &l : links_)
        sum += l.busy;
    return sum;
}

std::uint64_t
CongestionObserver::totalIdle() const
{
    std::uint64_t sum = 0;
    for (const LinkStats &l : links_)
        sum += l.idle;
    return sum;
}

std::uint64_t
CongestionObserver::totalStalled() const
{
    std::uint64_t sum = 0;
    for (const LinkStats &l : links_)
        sum += l.stalled;
    return sum;
}

int
CongestionObserver::hottestLink() const
{
    int best = -1;
    std::uint64_t worst = 0;
    for (std::size_t i = 0; i < links_.size(); ++i) {
        if (best < 0 || links_[i].stalled > worst) {
            best = static_cast<int>(i);
            worst = links_[i].stalled;
        }
    }
    return best;
}

void
CongestionObserver::reportMetrics(RunReport &rep,
                                  const std::string &scope) const
{
    const std::string prefix = "congestion." + scope;
    rep.addMetric(prefix + "links", std::uint64_t(numLinks()));
    rep.addMetric(prefix + "cycles.observed", cyclesObserved_);
    rep.addMetric(prefix + "windows", windowsClosed_);
    rep.addMetric(prefix + "episodes", episodesOpened_);
    rep.addMetric(prefix + "cycles.busy", totalBusy());
    rep.addMetric(prefix + "cycles.idle", totalIdle());
    rep.addMetric(prefix + "cycles.stalled", totalStalled());
    rep.addMetric(prefix + "flows", std::uint64_t(numFlows()));
    rep.addMetric(prefix + "aggressors",
                  std::uint64_t(aggressorFlows()));
    rep.addMetric(prefix + "victims", std::uint64_t(victimFlows()));
    rep.addMetric(prefix + "slowdown.max", maxSlowdown());
}

Table
CongestionObserver::linkTable(const std::string &title) const
{
    Table t(title);
    t.header({"link", "busy", "idle", "stalled", "stall%", "hiwater",
              "req flits", "reply flits", "episodes"});
    for (std::size_t i = 0; i < links_.size(); ++i) {
        const LinkStats &l = links_[i];
        if (l.busy == 0 && l.stalled == 0)
            continue; // never carried or refused traffic
        const std::uint64_t sum = l.busy + l.idle + l.stalled;
        const double frac = sum ? double(l.stalled) / double(sum) : 0;
        t.row({labels_[i], Table::num((unsigned long)l.busy),
               Table::num((unsigned long)l.idle),
               Table::num((unsigned long)l.stalled),
               Table::num(frac * 100.0, 1) + "%",
               Table::num((long)l.highWater),
               Table::num((unsigned long)l.reqFlits),
               Table::num((unsigned long)l.replyFlits),
               Table::num((long)l.episodes)});
    }
    return t;
}

Table
CongestionObserver::flowTable(const std::string &title,
                              std::size_t maxRows) const
{
    Table t(title);
    t.header({"src", "dst", "delivered", "flits", "inflight",
              "slope/kcyc", "min lat", "mean lat", "slowdown",
              "agg ep", "vic ep"});
    std::vector<const FlowStats *> ranked;
    ranked.reserve(flows_.size());
    for (const auto &kv : flows_) // nifdy:unordered-ok(collected then sorted below)
        ranked.push_back(&kv.second);
    std::sort(ranked.begin(), ranked.end(),
              [](const FlowStats *a, const FlowStats *b) {
                  const double sa = a->slowdown();
                  const double sb = b->slowdown();
                  if (sa != sb)
                      return sa > sb;
                  if (a->src != b->src)
                      return a->src < b->src;
                  return a->dst < b->dst;
              });
    if (ranked.size() > maxRows)
        ranked.resize(maxRows);
    for (const FlowStats *f : ranked) {
        t.row({Table::num((long)f->src), Table::num((long)f->dst),
               Table::num((unsigned long)f->delivered),
               Table::num((unsigned long)f->deliveredFlits),
               Table::num((long)f->inflight),
               Table::num(f->slope(), 2),
               Table::num((unsigned long)(f->delivered ? f->latMin
                                                       : 0)),
               Table::num(f->meanLatency(), 1),
               Table::num(f->slowdown(), 2),
               Table::num((long)f->aggressorEpisodes),
               Table::num((long)f->victimEpisodes)});
    }
    return t;
}

namespace
{

/** "3>17 5>17" style flow list, capped for table width. */
std::string
flowList(const std::vector<CongestionEpisode::Share> &shares,
         bool aggressors, std::size_t cap = 4)
{
    std::string out;
    std::size_t n = 0;
    std::size_t matched = 0;
    for (const CongestionEpisode::Share &s : shares) {
        if ((aggressors && !s.aggressor) ||
            (!aggressors && !s.victim))
            continue;
        ++matched;
        if (n >= cap)
            continue;
        if (!out.empty())
            out += " ";
        out += std::to_string(s.src) + ">" + std::to_string(s.dst);
        ++n;
    }
    if (matched > n)
        out += " +" + std::to_string(matched - n);
    if (out.empty())
        out = "-";
    return out;
}

} // namespace

Table
CongestionObserver::episodeTable(const std::string &title) const
{
    Table t(title);
    t.header({"link", "open", "close", "windows", "peak%", "flits",
              "aggressors", "victims"});
    for (const CongestionEpisode &e : episodes_) {
        t.row({labels_[static_cast<std::size_t>(e.link)],
               Table::num((unsigned long)e.open),
               e.closed() ? Table::num((unsigned long)e.close)
                          : std::string("open"),
               Table::num((long)e.windows),
               Table::num(e.peakStallFrac * 100.0, 1) + "%",
               Table::num((unsigned long)e.totalFlits),
               flowList(e.shares, true), flowList(e.shares, false)});
    }
    return t;
}

} // namespace nifdy
