#include "sim/anatomy.hh"

#include <memory>

#include "net/packet.hh"
#include "sim/audit.hh"
#include "sim/log.hh"
#include "sim/report.hh"
#include "sim/trace.hh"

namespace nifdy
{

namespace
{

/** Trace-event names (static storage; taxonomy per DESIGN.md §8). */
constexpr const char *sliceNames[numStallCauses] = {
    "anatomy.stall.swsend", "anatomy.stall.ackwait",
    "anatomy.stall.optslot", "anatomy.stall.optcap",
    "anatomy.stall.window", "anatomy.stall.inject",
    "anatomy.stall.arb",    "anatomy.stall.wire",
    "anatomy.stall.retx",   "anatomy.stall.epoch",
    "anatomy.stall.reorder", "anatomy.stall.swrecv",
    "anatomy.stall.coll",
};

constexpr const char *counterNames[numStallCauses] = {
    "anatomy.live.swsend", "anatomy.live.ackwait",
    "anatomy.live.optslot", "anatomy.live.optcap",
    "anatomy.live.window", "anatomy.live.inject",
    "anatomy.live.arb",    "anatomy.live.wire",
    "anatomy.live.retx",   "anatomy.live.epoch",
    "anatomy.live.reorder", "anatomy.live.swrecv",
    "anatomy.live.coll",
};

/**
 * Aggregate conservation: the per-cause totals tile the end-to-end
 * latencies, so their sums must agree at every cycle (records only
 * touch the global totals when they complete).
 */
class AnatomyConservationChecker : public InvariantChecker
{
  public:
    explicit AnatomyConservationChecker(const Anatomy *a) : a_(a) {}

    const char *name() const override { return "latency-anatomy"; }

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
        std::uint64_t attributed = a_->totalAttributed();
        std::uint64_t latency = a_->totalLatency();
        if (attributed != latency) {
            fail("latency anatomy leaks cycles: " +
                 std::to_string(attributed) +
                 " attributed to stall causes vs " +
                 std::to_string(latency) +
                 " of end-to-end latency across " +
                 std::to_string(a_->packets()) + " packets");
        }
    }

    const Anatomy *a_;
};

} // namespace

void
AnatomyConfig::validate() const
{
    fatal_if(sampleRate < 0.0 || sampleRate > 1.0,
             "anatomy.sampleRate %f out of [0, 1]", sampleRate);
}

std::unique_ptr<InvariantChecker>
makeAnatomyConservationChecker(const Anatomy *anatomy)
{
    return std::make_unique<AnatomyConservationChecker>(anatomy);
}

Anatomy::Anatomy(const AnatomyConfig &cfg, int numNodes, Tracer *tracer)
    : cfg_(cfg), sampler_(cfg.sampleRate, cfg.seed), tracer_(tracer)
{
    cfg_.validate();
    panic_if(numNodes < 1, "anatomy needs >= 1 node");
    for (int i = 0; i < numStallCauses; ++i) {
        dists_[i] = Distribution(std::string("anatomy.stall.") +
                                 stallCauseSlugs[i]);
        classDists_[0][i] = Distribution(
            std::string("anatomy.scalar.") + stallCauseSlugs[i]);
        classDists_[1][i] = Distribution(
            std::string("anatomy.bulk.") + stallCauseSlugs[i]);
    }
    nodeTotals_.resize(static_cast<std::size_t>(numNodes));
    nodePackets_.assign(static_cast<std::size_t>(numNodes), 0);
    nodeLatency_.assign(static_cast<std::size_t>(numNodes), 0);
}

std::uint64_t
Anatomy::totalAttributed() const
{
    std::uint64_t sum = 0;
    for (std::uint64_t t : totals_)
        sum += t;
    return sum;
}

Anatomy::Rec *
Anatomy::find(const Packet &pkt)
{
    if (pkt.type == PacketType::ack || pkt.ctrlOnly)
        return nullptr;
    auto it = recs_.find(pkt.rootId());
    return it == recs_.end() ? nullptr : &it->second;
}

void
Anatomy::closeSegment(Rec &r, Cycle now)
{
    panic_if(now < r.last, "anatomy segment runs backwards "
             "(%llu -> %llu)",
             static_cast<unsigned long long>(r.last),
             static_cast<unsigned long long>(now));
    r.accum[static_cast<int>(r.cur)] += now - r.last;
    r.last = now;
}

void
Anatomy::transition(Rec &r, const Packet &pkt, StallCause cause,
                    Cycle now)
{
    if (cause == r.cur) {
        // Re-classified into the same cause: the open segment keeps
        // running (this is the per-cycle classifyStalls steady state).
        return;
    }
    Cycle from = r.last;
    int oldIdx = static_cast<int>(r.cur);
    int newIdx = static_cast<int>(cause);
    closeSegment(r, now);
    r.cur = cause;
    --live_[oldIdx];
    ++live_[newIdx];
    if (pkt.type == PacketType::bulk)
        r.bulk = true;
    if (tracer_) {
        if (now > from)
            tracer_->anatomySlice(sliceNames[oldIdx], pkt.rootId(), from,
                                  now, r.src);
        tracer_->counterSample(counterNames[oldIdx], now, live_[oldIdx]);
        tracer_->counterSample(counterNames[newIdx], now, live_[newIdx]);
    }
}

void
Anatomy::onSend(const Packet &pkt, Cycle now)
{
    if (finished_ || pkt.type == PacketType::ack || pkt.ctrlOnly)
        return;
    if (pkt.cloneOf || !sampler_.keep(pkt.id))
        return; // clones join their original's record at inject
    Rec &r = recs_[pkt.id];
    r.start = now;
    r.last = now;
    r.cur = StallCause::swSend;
    r.src = pkt.src;
    ++live_[static_cast<int>(StallCause::swSend)];
    if (tracer_)
        tracer_->counterSample(
            counterNames[static_cast<int>(StallCause::swSend)], now,
            live_[static_cast<int>(StallCause::swSend)]);
}

void
Anatomy::onStall(const Packet &pkt, StallCause cause, Cycle now)
{
    if (Rec *r = find(pkt))
        transition(*r, pkt, cause, now);
}

void
Anatomy::onInject(const Packet &pkt, Cycle now)
{
    if (Rec *r = find(pkt))
        transition(*r, pkt, StallCause::wireTransit, now);
}

void
Anatomy::onArbLoss(const Packet &pkt, Cycle now)
{
    if (Rec *r = find(pkt))
        transition(*r, pkt, StallCause::routerArb, now);
}

void
Anatomy::onHop(const Packet &pkt, Cycle now)
{
    if (Rec *r = find(pkt))
        transition(*r, pkt, StallCause::wireTransit, now);
}

void
Anatomy::onDrop(const Packet &pkt, Cycle now)
{
    if (Rec *r = find(pkt))
        transition(*r, pkt, StallCause::retxBackoff, now);
}

void
Anatomy::onEpochReject(const Packet &pkt, Cycle now)
{
    if (Rec *r = find(pkt))
        transition(*r, pkt, StallCause::epochRecovery, now);
}

void
Anatomy::onReorder(const Packet &pkt, Cycle now)
{
    if (Rec *r = find(pkt))
        transition(*r, pkt, StallCause::reorderWait, now);
}

void
Anatomy::onDeliver(const Packet &pkt, Cycle now)
{
    if (Rec *r = find(pkt))
        transition(*r, pkt, StallCause::swReceive, now);
}

void
Anatomy::onAccept(const Packet &pkt, Cycle now)
{
    if (pkt.type == PacketType::ack || pkt.ctrlOnly)
        return;
    std::uint64_t root = pkt.rootId();
    auto it = recs_.find(root);
    if (it == recs_.end())
        return;
    Rec &r = it->second;
    Cycle from = r.last;
    int lastIdx = static_cast<int>(r.cur);
    closeSegment(r, now);
    --live_[lastIdx];

    // The tiling invariant, checked per packet: segments never
    // overlap and never leave gaps, so the per-cause cycles must sum
    // to the end-to-end latency exactly.
    std::uint64_t e2e = now - r.start;
    std::uint64_t sum = 0;
    for (std::uint64_t c : r.accum)
        sum += c;
    panic_if(sum != e2e,
             "latency anatomy conservation violated for packet "
             "root %llu: %llu attributed vs %llu end-to-end",
             static_cast<unsigned long long>(root),
             static_cast<unsigned long long>(sum),
             static_cast<unsigned long long>(e2e));

    int cls = r.bulk ? 1 : 0;
    for (int i = 0; i < numStallCauses; ++i) {
        totals_[i] += r.accum[i];
        dists_[i].sample(r.accum[i]);
        classDists_[cls][i].sample(r.accum[i]);
    }
    e2e_.sample(e2e);
    e2eSum_ += e2e;
    ++packets_;
    if (r.src != invalidNode &&
        static_cast<std::size_t>(r.src) < nodeTotals_.size()) {
        auto &nt = nodeTotals_[static_cast<std::size_t>(r.src)];
        for (int i = 0; i < numStallCauses; ++i)
            nt[i] += r.accum[i];
        ++nodePackets_[static_cast<std::size_t>(r.src)];
        nodeLatency_[static_cast<std::size_t>(r.src)] += e2e;
    }

    if (tracer_) {
        if (now > from)
            tracer_->anatomySlice(sliceNames[lastIdx], root, from, now,
                                  r.src);
        tracer_->counterSample(counterNames[lastIdx], now,
                               live_[lastIdx]);
    }
    recs_.erase(it);
}

void
Anatomy::finish(Cycle now)
{
    (void)now;
    if (finished_)
        return;
    finished_ = true;
    // In-flight records never completed: their attribution would be
    // partial, so they are discarded rather than skewing the books
    // (this is also what keeps conservation exact under terminal
    // drops, dead peers, and node crashes).
    discarded_ += recs_.size();
    for (const auto &kv : recs_) // nifdy:unordered-ok(commutative decrement, order-free)
        --live_[static_cast<int>(kv.second.cur)];
    recs_.clear();
}

void
Anatomy::reportMetrics(RunReport &rep, const std::string &scope) const
{
    const std::string prefix = "anatomy." + scope;
    rep.addMetric(prefix + "packets", packets_);
    rep.addMetric(prefix + "discarded", discarded_);
    rep.addMetric(prefix + "latency.cycles", totalLatency());
    rep.addMetric(prefix + "cycles.total", totalAttributed());
    for (int c = 0; c < numStallCauses; ++c)
        rep.addMetric(prefix + "cycles." + stallCauseSlugs[c],
                      totals_[c]);
}

Table
Anatomy::blameTable(const std::string &title) const
{
    Table t(title);
    t.header({"cause", "cycles", "share", "mean/pkt", "p95/pkt"});
    std::uint64_t total = totalAttributed();
    for (int i = 0; i < numStallCauses; ++i) {
        double share = total ? double(totals_[i]) / double(total) : 0;
        t.row({stallCauseLabels[i], Table::num((unsigned long)totals_[i]),
               Table::num(share * 100.0, 1) + "%",
               Table::num(dists_[i].mean(), 1),
               Table::num(dists_[i].percentile(0.95), 1)});
    }
    t.row({"total", Table::num((unsigned long)total), "100.0%",
           Table::num(e2e_.mean(), 1),
           Table::num(e2e_.percentile(0.95), 1)});
    return t;
}

Table
Anatomy::nodeTable(const std::string &title) const
{
    Table t(title);
    std::vector<std::string> cols{"node", "pkts", "latency"};
    for (int i = 0; i < numStallCauses; ++i)
        cols.push_back(stallCauseSlugs[i]);
    t.header(std::move(cols));
    for (std::size_t n = 0; n < nodeTotals_.size(); ++n) {
        if (nodePackets_[n] == 0)
            continue;
        std::vector<std::string> row{
            Table::num((long)n),
            Table::num((unsigned long)nodePackets_[n]),
            Table::num((unsigned long)nodeLatency_[n])};
        for (int i = 0; i < numStallCauses; ++i)
            row.push_back(Table::num((unsigned long)nodeTotals_[n][i]));
        t.row(std::move(row));
    }
    return t;
}

Table
Anatomy::classTable(const std::string &title) const
{
    Table t(title);
    t.header({"cause", "scalar cycles", "scalar mean", "bulk cycles",
              "bulk mean"});
    for (int i = 0; i < numStallCauses; ++i) {
        const Distribution &s = classDists_[0][i];
        const Distribution &b = classDists_[1][i];
        t.row({stallCauseLabels[i],
               Table::num((unsigned long)s.sum()),
               Table::num(s.mean(), 1),
               Table::num((unsigned long)b.sum()),
               Table::num(b.mean(), 1)});
    }
    return t;
}

} // namespace nifdy
