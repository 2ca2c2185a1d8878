/**
 * @file
 * Congestion-observatory tests: the per-link conservation invariant
 * (busy + idle + stalled tiles the observed cycles exactly, audited
 * every cycle), the hysteresis episode detector, victim/aggressor
 * classification and determinism. Non-perturbation is the
 * observer contract's (tests/test_probes.cc), the allocation-free
 * steady state the allocation gate's (tests/allocgate.cc).
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "harness/experiment.hh"
#include "net/channel.hh"
#include "net/packet.hh"
#include "sim/congestion.hh"
#include "traffic/incast.hh"
#include "traffic/synthetic.hh"

namespace nifdy
{
namespace
{

ExperimentConfig
congestionCfg(NicKind kind, std::uint64_t seed = 1)
{
    ExperimentConfig cfg;
    cfg.topology = "mesh2d";
    cfg.numNodes = 16;
    cfg.nicKind = kind;
    cfg.msg.packetWords = 8;
    cfg.seed = seed;
    cfg.audit = true; // the conservation checker runs every cycle
    cfg.congestion.enabled = true;
    cfg.congestion.window = 512;
    return cfg;
}

std::unique_ptr<Experiment>
runHeavy(const ExperimentConfig &cfg, Cycle cycles = 20000)
{
    auto exp = std::make_unique<Experiment>(cfg);
    for (NodeId n = 0; n < exp->numNodes(); ++n)
        exp->setWorkload(n, std::make_unique<SyntheticWorkload>(
                                exp->proc(n), exp->msg(n),
                                exp->barrier(), exp->numNodes(),
                                SyntheticParams::heavy(), 1));
    exp->runFor(cycles);
    return exp;
}

std::unique_ptr<Experiment>
runIncast(const ExperimentConfig &cfg, Cycle cycles = 20000)
{
    IncastParams ip; // receiver 0, heavy bursts
    auto exp = std::make_unique<Experiment>(cfg);
    for (NodeId n = 0; n < exp->numNodes(); ++n)
        exp->setWorkload(n, std::make_unique<IncastWorkload>(
                                exp->proc(n), exp->msg(n),
                                exp->barrier(), exp->numNodes(), ip,
                                cfg.seed));
    exp->runFor(cycles);
    return exp;
}

/** The tentpole invariant on the final aggregates: every observed
 * cycle of every link is exactly one of busy/idle/stalled. */
void
expectConservation(const CongestionObserver &co)
{
    ASSERT_GT(co.numLinks(), 0);
    const std::uint64_t observed = co.cyclesObserved();
    EXPECT_GT(observed, 0u);
    std::uint64_t busy = 0;
    std::uint64_t idle = 0;
    std::uint64_t stalled = 0;
    for (int i = 0; i < co.numLinks(); ++i) {
        const CongestionObserver::LinkStats &l = co.link(i);
        EXPECT_EQ(l.busy + l.idle + l.stalled, observed)
            << "link " << co.linkLabel(i);
        busy += l.busy;
        idle += l.idle;
        stalled += l.stalled;
    }
    // The totals tile a second way: links x observed.
    EXPECT_EQ(busy + idle + stalled,
              std::uint64_t(co.numLinks()) * observed);
    EXPECT_EQ(busy, co.totalBusy());
    EXPECT_EQ(idle, co.totalIdle());
    EXPECT_EQ(stalled, co.totalStalled());
}

//===------------------------------------------------------------===//
// Conservation on real traffic (audited every cycle on top)
//===------------------------------------------------------------===//

TEST(Congestion, ConservationHoldsOnHeavyTraffic)
{
    ExperimentConfig cfg = congestionCfg(NicKind::nifdy);
    auto exp = runHeavy(cfg);
    ASSERT_NE(exp->congestion(), nullptr);
    const CongestionObserver &co = *exp->congestion();
    expectConservation(co);
    // Heavy all-to-all traffic contends somewhere.
    EXPECT_GT(co.totalBusy(), 0u);
    EXPECT_GT(co.totalStalled(), 0u);
    EXPECT_EQ(co.windowsClosed(),
              co.cyclesObserved() / cfg.congestion.window);
}

TEST(Congestion, ConservationHoldsUnderFivePercentFaultRate)
{
    ExperimentConfig cfg = congestionCfg(NicKind::lossy, 3);
    cfg.fault.dropProb = 0.05;
    cfg.lossy.retxTimeout = 1200;
    cfg.lossy.backoffFactor = 2.0;
    cfg.lossy.maxRetxTimeout = 9600;
    auto exp = runHeavy(cfg, 40000);
    ASSERT_NE(exp->congestion(), nullptr);
    expectConservation(*exp->congestion());
    // Dropped packets inject without delivering; the clamp-aware
    // inflight account stays non-negative for every flow.
    std::uint64_t injected = 0;
    std::uint64_t delivered = 0;
    for (NodeId s = 0; s < 16; ++s) {
        for (NodeId d = 0; d < 16; ++d) {
            const CongestionObserver::FlowStats *f =
                exp->congestion()->flow(s, d);
            if (!f)
                continue;
            EXPECT_GE(f->inflight, 0) << s << "->" << d;
            injected += f->injected;
            delivered += f->delivered;
        }
    }
    EXPECT_GT(injected, delivered); // some losses were in flight/lost
}

//===------------------------------------------------------------===//
// Hysteresis episode detector (unit, via the attachChannels seam)
//===------------------------------------------------------------===//

/** Harness for driving one observed channel by hand. */
struct LinkRig
{
    CongestionConfig cfg;
    ChannelParams cp;
    Channel ch;
    std::unique_ptr<CongestionObserver> obs;
    Cycle now = 0;

    explicit LinkRig(const CongestionConfig &c)
        : cfg(c), ch(cp),
          obs(std::make_unique<CongestionObserver>(cfg, 8))
    {
        obs->attachChannels({&ch}, {"L"}, 4);
    }

    /** Run one full window stalling @p stallCycles of its cycles. */
    void window(int stallCycles)
    {
        for (Cycle c = 0; c < cfg.window; ++c, ++now) {
            if (c < Cycle(stallCycles))
                obs->onLinkStall(&ch, now);
            obs->step(now);
        }
    }
};

TEST(CongestionDetector, OpensAtOnFracAndClosesAtOffFrac)
{
    CongestionConfig cfg;
    cfg.enabled = true;
    cfg.window = 10;
    cfg.onFrac = 0.5;
    cfg.offFrac = 0.3;
    LinkRig rig(cfg);

    rig.window(10); // fully stalled -> opens
    EXPECT_EQ(rig.obs->episodesOpened(), 1u);
    EXPECT_EQ(rig.obs->openEpisodes(), 1);

    rig.window(4); // 0.4 >= offFrac: stays open (hysteresis)
    EXPECT_EQ(rig.obs->episodesClosed(), 0u);

    rig.window(2); // 0.2 < offFrac: closes
    EXPECT_EQ(rig.obs->episodesClosed(), 1u);
    EXPECT_EQ(rig.obs->openEpisodes(), 0);

    ASSERT_EQ(rig.obs->episodes().size(), 1u);
    const CongestionEpisode &e = rig.obs->episodes()[0];
    EXPECT_TRUE(e.closed());
    EXPECT_EQ(e.link, 0);
    EXPECT_EQ(e.open, 0u);   // retroactive to the opening window
    EXPECT_EQ(e.close, 30u); // one past the closing window
    EXPECT_EQ(e.windows, 3);
    EXPECT_DOUBLE_EQ(e.peakStallFrac, 1.0);
    EXPECT_EQ(rig.obs->link(0).stalled, 16u);
    EXPECT_EQ(rig.obs->link(0).idle, 14u);
}

TEST(CongestionDetector, SubThresholdWindowsNeverOpen)
{
    CongestionConfig cfg;
    cfg.enabled = true;
    cfg.window = 10;
    cfg.onFrac = 0.5;
    cfg.offFrac = 0.3;
    LinkRig rig(cfg);

    // 0.4 stall fraction would *sustain* an episode but must not
    // *start* one: that asymmetry is the hysteresis.
    for (int i = 0; i < 5; ++i)
        rig.window(4);
    EXPECT_EQ(rig.obs->episodesOpened(), 0u);
    EXPECT_EQ(rig.obs->link(0).episodes, 0);
}

TEST(CongestionDetector, FinishClosesOpenEpisodes)
{
    CongestionConfig cfg;
    cfg.enabled = true;
    cfg.window = 10;
    LinkRig rig(cfg);
    rig.window(10);
    ASSERT_EQ(rig.obs->openEpisodes(), 1);
    rig.obs->finish(rig.now);
    EXPECT_EQ(rig.obs->openEpisodes(), 0);
    EXPECT_EQ(rig.obs->episodesClosed(), 1u);
    rig.obs->finish(rig.now); // idempotent
    EXPECT_EQ(rig.obs->episodesClosed(), 1u);
}

//===------------------------------------------------------------===//
// Victim/aggressor classification (unit)
//===------------------------------------------------------------===//

Packet
dataPacket(NodeId src, NodeId dst, Cycle createdAt)
{
    Packet p;
    p.src = src;
    p.dst = dst;
    p.type = PacketType::scalar;
    p.netClass = NetClass::request;
    p.sizeBytes = 32;
    p.createdAt = createdAt;
    return p;
}

TEST(CongestionClassify, TwoAggressorsOneVictim)
{
    CongestionConfig cfg;
    cfg.enabled = true;
    cfg.window = 10;
    cfg.aggressorShare = 0.25;
    cfg.victimSlowdown = 2.0;
    LinkRig rig(cfg);
    CongestionObserver &co = *rig.obs;

    // Flows 1->0 and 2->0 move fast and in bulk; flow 3->0 trickles
    // and is slowed 4x beyond its own isolation baseline.
    for (NodeId s : {NodeId(1), NodeId(2)}) {
        for (int i = 0; i < 4; ++i) {
            Packet p = dataPacket(s, 0, Cycle(100 * i));
            co.onInject(p, p.createdAt);
            co.onDeliver(p, p.createdAt + 10); // slowdown 1.0
        }
    }
    Packet fastC = dataPacket(3, 0, 0);
    co.onInject(fastC, 0);
    co.onDeliver(fastC, 10); // baseline: latMin = 10
    for (int i = 1; i < 4; ++i) {
        Packet p = dataPacket(3, 0, Cycle(100 * i));
        co.onInject(p, p.createdAt);
        co.onDeliver(p, p.createdAt + 50);
    }
    // mean = (10 + 3*50)/4 = 40 -> slowdown 4.0
    ASSERT_NE(co.flow(3, 0), nullptr);
    EXPECT_DOUBLE_EQ(co.flow(3, 0)->slowdown(), 4.0);

    // Two fully stalled windows carrying 40+40+4 flits.
    Packet pa = dataPacket(1, 0, 0);
    Packet pb = dataPacket(2, 0, 0);
    Packet pc = dataPacket(3, 0, 0);
    for (int w = 0; w < 2; ++w) {
        for (Cycle c = 0; c < cfg.window; ++c, ++rig.now) {
            co.onLinkStall(&rig.ch, rig.now);
            for (int k = 0; k < 2; ++k) {
                Flit f;
                f.pkt = (k == 0) ? &pa : &pb;
                co.onLinkFlit(&rig.ch, f, rig.now);
            }
            if (c < 2) {
                Flit f;
                f.pkt = &pc;
                co.onLinkFlit(&rig.ch, f, rig.now);
            }
            co.step(rig.now);
        }
    }
    co.finish(rig.now);

    ASSERT_EQ(co.episodes().size(), 1u);
    const CongestionEpisode &e = co.episodes()[0];
    EXPECT_EQ(e.totalFlits, 44u);
    ASSERT_EQ(e.shares.size(), 3u);
    // Sorted by contribution: the two 20-flit flows lead.
    EXPECT_EQ(e.shares[0].flits, 20u);
    EXPECT_TRUE(e.shares[0].aggressor);
    EXPECT_FALSE(e.shares[0].victim);
    EXPECT_EQ(e.shares[1].flits, 20u);
    EXPECT_TRUE(e.shares[1].aggressor);
    EXPECT_EQ(e.shares[2].src, 3);
    EXPECT_EQ(e.shares[2].flits, 4u);
    EXPECT_FALSE(e.shares[2].aggressor);
    EXPECT_TRUE(e.shares[2].victim);
    EXPECT_DOUBLE_EQ(e.shares[2].slowdown, 4.0);

    EXPECT_EQ(co.aggressorFlows(), 2);
    EXPECT_EQ(co.victimFlows(), 1);
    EXPECT_EQ(co.flow(1, 0)->aggressorEpisodes, 1);
    EXPECT_EQ(co.flow(2, 0)->aggressorEpisodes, 1);
    EXPECT_EQ(co.flow(3, 0)->victimEpisodes, 1);
    EXPECT_EQ(co.flow(3, 0)->aggressorEpisodes, 0);
}

//===------------------------------------------------------------===//
// Incast workload + end-to-end attribution
//===------------------------------------------------------------===//

TEST(Congestion, IncastTargetsOnlyTheReceiver)
{
    ExperimentConfig cfg = congestionCfg(NicKind::nifdy);
    auto exp = runIncast(cfg);
    EXPECT_GT(exp->packetsDelivered(), 0u);
    const CongestionObserver &co = *exp->congestion();
    expectConservation(co);
    // Every observed data flow lands on the single receiver, and the
    // receiver itself sends nothing.
    EXPECT_GT(co.numFlows(), 0u);
    for (NodeId s = 0; s < 16; ++s) {
        for (NodeId d = 0; d < 16; ++d) {
            const CongestionObserver::FlowStats *f = co.flow(s, d);
            if (!f)
                continue;
            EXPECT_EQ(d, 0) << "flow " << s << "->" << d;
            EXPECT_NE(s, 0);
        }
    }
    // The senders advance through barrier-separated phases.
    auto *w = dynamic_cast<IncastWorkload *>(exp->workload(1));
    ASSERT_NE(w, nullptr);
    EXPECT_TRUE(w->sender());
    EXPECT_GE(w->phase(), 1);
    // A sustained many-to-one hot spot shows up as episodes.
    EXPECT_GT(co.episodesOpened(), 0u);
}

TEST(Congestion, SeededRunsAreDeterministic)
{
    ExperimentConfig cfg = congestionCfg(NicKind::nifdy, 9);
    auto a = runIncast(cfg);
    auto b = runIncast(cfg);
    const CongestionObserver &ca = *a->congestion();
    const CongestionObserver &cb = *b->congestion();
    ASSERT_EQ(ca.numLinks(), cb.numLinks());
    for (int i = 0; i < ca.numLinks(); ++i) {
        EXPECT_EQ(ca.link(i).busy, cb.link(i).busy) << i;
        EXPECT_EQ(ca.link(i).idle, cb.link(i).idle) << i;
        EXPECT_EQ(ca.link(i).stalled, cb.link(i).stalled) << i;
        EXPECT_EQ(ca.link(i).episodes, cb.link(i).episodes) << i;
    }
    EXPECT_EQ(ca.episodesOpened(), cb.episodesOpened());
    EXPECT_EQ(ca.episodesClosed(), cb.episodesClosed());
    EXPECT_EQ(ca.numFlows(), cb.numFlows());
    EXPECT_EQ(ca.aggressorFlows(), cb.aggressorFlows());
    EXPECT_EQ(ca.victimFlows(), cb.victimFlows());
    EXPECT_DOUBLE_EQ(ca.maxSlowdown(), cb.maxSlowdown());
    // The rendered tables agree byte for byte.
    EXPECT_EQ(ca.linkTable("t").csv(), cb.linkTable("t").csv());
    EXPECT_EQ(ca.flowTable("t").csv(), cb.flowTable("t").csv());
    EXPECT_EQ(ca.episodeTable("t").csv(), cb.episodeTable("t").csv());
}

} // namespace
} // namespace nifdy
