/**
 * @file
 * Unit tests for the base Router: forwarding, credits, wormhole
 * packet integrity, backpressure, store-and-forward, and switch
 * arbitration fairness.
 */

#include <algorithm>
#include <deque>
#include <stdexcept>

#include <gtest/gtest.h>

#include "net/router.hh"
#include "netharness.hh"
#include "sim/fault.hh"
#include "sim/kernel.hh"

namespace nifdy
{
namespace
{

/** Router that sends everything to output port (dst mod numOuts). */
class TestRouter : public Router
{
  public:
    using Router::Router;

    /** Packets in the order their heads won an output VC. */
    std::vector<const Packet *> allocated;

  protected:
    bool
    route(int, Packet &pkt, std::vector<int> &cands) override
    {
        cands.push_back(pkt.dst % std::max(1, numOutPorts()));
        return false;
    }

    void
    onAllocate(Packet &pkt, int, int) override
    {
        allocated.push_back(&pkt);
    }
};

/**
 * Credit-respecting single-router test bench: packets are queued
 * per input port and fed as the router grants credits; outputs are
 * drained like a well-behaved consumer (configurable per port).
 */
class RouterTest : public ::testing::Test
{
  protected:
    void
    build(int inPorts, int outPorts, RouterParams rp = RouterParams(),
          int cyclesPerFlit = 1)
    {
        params = rp;
        router = std::make_unique<TestRouter>(0, rp);
        kernel.add(router.get());
        ChannelParams cp;
        cp.cyclesPerFlit = cyclesPerFlit;
        cp.latency = 1;
        for (int i = 0; i < inPorts; ++i)
            addInput(cp);
        for (int i = 0; i < outPorts; ++i) {
            outs.push_back(std::make_unique<Channel>(cp));
            router->addOutPort(outs.back().get(), rp.bufDepth);
            got.emplace_back();
            drainEnabled.push_back(1);
        }
    }

    /** Attach one more input port, fed through a channel with
     * parameters @p cp. */
    void
    addInput(const ChannelParams &cp)
    {
        ins.push_back(std::make_unique<Channel>(cp));
        router->addInPort(ins.back().get());
        credits.push_back(std::vector<int>(
            numNetClasses * params.vcsPerClass, params.bufDepth));
        sendQ.emplace_back();
    }

    /** Queue a whole packet for injection at input @p port. */
    void
    queuePacket(Packet *p, int port, int flits, int vc = 0)
    {
        for (int i = 0; i < flits; ++i) {
            Flit f;
            f.pkt = p;
            f.head = i == 0;
            f.tail = i == flits - 1;
            f.vc = static_cast<std::int8_t>(vc);
            sendQ[port].push_back(f);
        }
    }

    /** Run @p cycles, feeding inputs and draining outputs. The
     * router itself is stepped by the kernel it is registered
     * with. */
    void
    pump(Cycle cycles)
    {
        for (Cycle end = now + cycles; now < end; ++now) {
            for (std::size_t p = 0; p < ins.size(); ++p) {
                while (ins[p]->hasCredit(now))
                    ++credits[p][ins[p]->popCredit(now)];
                if (!sendQ[p].empty()) {
                    Flit &f = sendQ[p].front();
                    if (credits[p][f.vc] > 0 &&
                        ins[p]->canPush(f.pkt->netClass, now)) {
                        --credits[p][f.vc];
                        ins[p]->push(f, now);
                        sendQ[p].pop_front();
                    }
                }
            }
            kernel.step();
            for (std::size_t o = 0; o < outs.size(); ++o) {
                if (!drainEnabled[o])
                    continue;
                while (outs[o]->hasFlit(now)) {
                    Flit f = outs[o]->pop(now);
                    outs[o]->pushCredit(f.vc, now);
                    got[o].push_back(f);
                }
            }
        }
    }

    RouterParams params;
    PacketPool pool;
    Kernel kernel;
    std::unique_ptr<TestRouter> router;
    std::vector<std::unique_ptr<Channel>> ins;
    std::vector<std::unique_ptr<Channel>> outs;
    std::vector<std::vector<int>> credits;
    std::vector<std::deque<Flit>> sendQ;
    std::vector<std::vector<Flit>> got;
    std::vector<char> drainEnabled;
    Cycle now = 0;
};

TEST_F(RouterTest, ForwardsAWholePacket)
{
    build(1, 1);
    Packet *p = pool.alloc();
    p->dst = 0;
    p->sizeBytes = 16;
    queuePacket(p, 0, 4);
    pump(60);
    ASSERT_EQ(got[0].size(), 4u);
    EXPECT_TRUE(got[0].front().head);
    EXPECT_TRUE(got[0].back().tail);
    for (const Flit &f : got[0])
        EXPECT_EQ(f.pkt, p);
    EXPECT_EQ(router->flitsSwitched(), 4u);
    EXPECT_EQ(router->bufferedFlits(), 0);
    pool.release(p);
}

TEST_F(RouterTest, RoutesByDestination)
{
    build(1, 2);
    Packet *p = pool.alloc();
    p->dst = 1;
    p->sizeBytes = 4;
    queuePacket(p, 0, 1);
    pump(30);
    EXPECT_EQ(got[0].size(), 0u);
    ASSERT_EQ(got[1].size(), 1u);
    pool.release(p);
}

TEST_F(RouterTest, WormholeKeepsPacketsContiguousPerVC)
{
    build(2, 1);
    Packet *a = pool.alloc();
    Packet *b = pool.alloc();
    a->dst = b->dst = 0;
    a->sizeBytes = b->sizeBytes = 12;
    queuePacket(a, 0, 3);
    queuePacket(b, 1, 3);
    pump(100);
    ASSERT_EQ(got[0].size(), 6u);
    // Output VC is held until the tail: whichever packet wins the
    // output first must finish before the other starts.
    Packet *first = got[0][0].pkt;
    EXPECT_EQ(got[0][1].pkt, first);
    EXPECT_EQ(got[0][2].pkt, first);
    EXPECT_TRUE(got[0][2].tail);
    Packet *second = got[0][3].pkt;
    EXPECT_NE(second, first);
    EXPECT_EQ(got[0][5].pkt, second);
    pool.release(a);
    pool.release(b);
}

TEST_F(RouterTest, BackpressureWithoutCreditsStops)
{
    RouterParams rp;
    rp.bufDepth = 2;
    build(1, 1, rp);
    drainEnabled[0] = 0; // consumer returns no credits
    Packet *p = pool.alloc();
    p->dst = 0;
    p->sizeBytes = 24;
    queuePacket(p, 0, 6);
    pump(100);
    // Only the initial credit allotment may leave the router.
    int forwarded = 0;
    while (outs[0]->hasFlit(now))
        outs[0]->pop(now), ++forwarded;
    EXPECT_EQ(forwarded, 2);
    pool.release(p);
}

TEST_F(RouterTest, CreditsRestartFlow)
{
    RouterParams rp;
    rp.bufDepth = 2;
    build(1, 1, rp);
    Packet *p = pool.alloc();
    p->dst = 0;
    p->sizeBytes = 24;
    queuePacket(p, 0, 6);
    pump(120);
    EXPECT_EQ(got[0].size(), 6u);
    pool.release(p);
}

TEST_F(RouterTest, BufferOverflowPanics)
{
    RouterParams rp;
    rp.bufDepth = 1;
    build(1, 1, rp);
    Packet *p = pool.alloc();
    p->dst = 0;
    p->sizeBytes = 12;
    // Violate credit discipline deliberately: push three flits, one
    // per cycle, without waiting for credits.
    drainEnabled[0] = 0;
    EXPECT_THROW(
        {
            for (Cycle c = 0; c < 10; ++c) {
                if (c < 3) {
                    Flit f;
                    f.pkt = p;
                    f.head = c == 0;
                    f.tail = c == 2;
                    ins[0]->push(f, c);
                }
                kernel.step();
            }
        },
        std::logic_error);
    pool.release(p);
}

TEST_F(RouterTest, StoreAndForwardWaitsForTail)
{
    RouterParams rp;
    rp.storeAndForward = true;
    rp.bufDepth = 8;
    build(1, 1, rp, 4);
    Packet *p = pool.alloc();
    p->dst = 0;
    p->sizeBytes = 16; // 4 flits, 4 cycles each on the input link
    queuePacket(p, 0, 4);
    // The head must not appear before the tail has been buffered
    // (tail lands around cycle 17); cut-through would emit the head
    // around cycle 10.
    pump(14);
    EXPECT_EQ(got[0].size(), 0u);
    pump(80);
    EXPECT_EQ(got[0].size(), 4u);
    pool.release(p);
}

TEST_F(RouterTest, ArbitrationSharesOutput)
{
    // Two inputs, one output, single-flit packets: both inputs get
    // service (round robin), neither starves.
    build(2, 1);
    std::vector<Packet *> pkts;
    for (int i = 0; i < 8; ++i) {
        Packet *a = pool.alloc();
        a->dst = 0;
        a->sizeBytes = 4;
        pkts.push_back(a);
        queuePacket(a, i % 2, 1);
    }
    pump(150);
    ASSERT_EQ(got[0].size(), 8u);
    // Fairness: the first four deliveries include both inputs.
    bool sawEven = false;
    bool sawOdd = false;
    for (int i = 0; i < 4; ++i) {
        for (std::size_t j = 0; j < pkts.size(); ++j) {
            if (got[0][i].pkt == pkts[j])
                (j % 2 ? sawOdd : sawEven) = true;
        }
    }
    EXPECT_TRUE(sawEven);
    EXPECT_TRUE(sawOdd);
    for (Packet *p : pkts)
        pool.release(p);
}

TEST_F(RouterTest, ClassesUseSeparateVCs)
{
    RouterParams rp;
    rp.vcsPerClass = 1;
    build(1, 1, rp);
    Packet *req = pool.alloc();
    req->dst = 0;
    req->netClass = NetClass::request;
    req->sizeBytes = 4;
    Packet *rep = pool.alloc();
    rep->dst = 0;
    rep->netClass = NetClass::reply;
    rep->sizeBytes = 4;
    queuePacket(req, 0, 1, 0); // request class VC 0
    queuePacket(rep, 0, 1, 1); // reply class VC 1
    pump(40);
    ASSERT_EQ(got[0].size(), 2u);
    EXPECT_NE(got[0][0].vc, got[0][1].vc);
    pool.release(req);
    pool.release(rep);
}

TEST_F(RouterTest, BufferCapacityAccounting)
{
    RouterParams rp;
    rp.vcsPerClass = 2;
    rp.bufDepth = 3;
    build(5, 5, rp);
    // 5 inputs * (2 classes * 2 VCs) * depth 3
    EXPECT_EQ(router->bufferCapacityFlits(), 5 * 4 * 3);
}

TEST_F(RouterTest, CreditsAvailablePerClass)
{
    RouterParams rp;
    rp.vcsPerClass = 2;
    rp.bufDepth = 2;
    build(1, 1, rp);
    EXPECT_EQ(router->creditsAvailable(0, NetClass::request), 4);
    EXPECT_EQ(router->creditsAvailable(0, NetClass::reply), 4);
}

TEST_F(RouterTest, HeadBehindDepartingTailIsRoutedNextCycle)
{
    // Two packets queue back to back in one VC while the output link
    // is down. When it comes up, the first packet's tail leaves with
    // the second's head already buffered behind it: no flit arrives
    // to mark that head unrouted, so the departing tail must.
    RouterParams rp;
    rp.bufDepth = 4;
    build(1, 1, rp);
    outs[0]->addDownWindow(0, 10);
    Packet *a = pool.alloc();
    Packet *b = pool.alloc();
    a->dst = b->dst = 0;
    a->sizeBytes = 8;
    b->sizeBytes = 4;
    queuePacket(a, 0, 2);
    queuePacket(b, 0, 1);
    Cycle tailLeft = 0;
    Cycle secondRouted = 0;
    while (now < 40 && secondRouted == 0) {
        pump(1);
        if (tailLeft == 0 && outs[0]->totalFlits() == 2)
            tailLeft = now - 1;
        if (router->allocated.size() == 2)
            secondRouted = now - 1;
    }
    ASSERT_EQ(router->allocated.size(), 2u);
    EXPECT_EQ(router->allocated[1], b);
    EXPECT_GE(tailLeft, 10u);
    EXPECT_EQ(secondRouted, tailLeft + 1);
    pump(20);
    ASSERT_EQ(got[0].size(), 3u);
    EXPECT_EQ(got[0][2].pkt, b);
    pool.release(a);
    pool.release(b);
}

TEST_F(RouterTest, SlowInputGrowsTheArrivalWheel)
{
    // A 1-cycle input needs a 4-slot wheel. A 16-cycle input attached
    // while a one-flit packet is in flight on the first grows the
    // wheel past the 16 slots of a time-sliced cm5 link, and must
    // re-mark that flit: no later flit on its channel would pop it.
    build(1, 2);
    EXPECT_EQ(router->arrivals().slots(), 4);
    Packet *a = pool.alloc();
    Packet *b = pool.alloc();
    a->dst = 0;
    b->dst = 1;
    a->sizeBytes = 4;
    b->sizeBytes = 16;
    queuePacket(a, 0, 1);
    pump(1);
    ASSERT_EQ(ins[0]->inFlight(), 1);
    ChannelParams slow;
    slow.cyclesPerFlit = 16;
    slow.latency = 1;
    addInput(slow);
    EXPECT_EQ(router->arrivals().slots(), 32);
    queuePacket(b, 1, 4);
    pump(200);
    ASSERT_EQ(got[0].size(), 1u);
    EXPECT_EQ(got[0].front().pkt, a);
    ASSERT_EQ(got[1].size(), 4u);
    EXPECT_TRUE(got[1].back().tail);
    EXPECT_EQ(got[1].front().pkt, b);
    EXPECT_EQ(router->bufferedFlits(), 0);
    EXPECT_TRUE(router->arrivals().empty());
    pool.release(a);
    pool.release(b);
}

TEST_F(RouterTest, ParkedHeadWinsTheCycleAfterTheTailLeaves)
{
    // Two heads arrive together for one output VC. The lower input
    // wins it; the other parks, is not retried while the winner
    // streams, and allocates on the cycle after the winner's tail
    // leaves.
    build(2, 1);
    Packet *a = pool.alloc();
    Packet *b = pool.alloc();
    a->dst = b->dst = 0;
    a->sizeBytes = b->sizeBytes = 12;
    queuePacket(a, 0, 3);
    queuePacket(b, 1, 3);
    const std::uint64_t loserBit = std::uint64_t{1}
                                   << (1 * router->numVCs());
    Cycle tailLeft = 0;
    Cycle secondRouted = 0;
    bool parkedSeen = false;
    while (now < 100 && secondRouted == 0) {
        pump(1);
        if (router->parked() == loserBit) {
            parkedSeen = true;
            EXPECT_EQ(router->allocated.size(), 1u);
        }
        if (tailLeft == 0 && outs[0]->totalFlits() == 3)
            tailLeft = now - 1;
        if (router->allocated.size() == 2)
            secondRouted = now - 1;
    }
    EXPECT_TRUE(parkedSeen);
    ASSERT_EQ(router->allocated.size(), 2u);
    EXPECT_EQ(router->allocated[0], a);
    EXPECT_EQ(router->allocated[1], b);
    EXPECT_EQ(router->parked(), 0u);
    EXPECT_GT(tailLeft, 0u);
    EXPECT_EQ(secondRouted, tailLeft + 1);
    pump(40);
    ASSERT_EQ(got[0].size(), 6u);
    EXPECT_EQ(got[0][3].pkt, b);
    pool.release(a);
    pool.release(b);
}

TEST_F(RouterTest, MasksCoverExactly64InputVCs)
{
    RouterParams rp;
    rp.vcsPerClass = 4; // 8 VCs per input port
    build(Router::maxMaskBits / 8, 1, rp);
    EXPECT_EQ(router->numInPorts() * router->numVCs(), 64);
    Channel extra{ChannelParams()};
    EXPECT_THROW(router->addInPort(&extra), std::runtime_error);
    for (int i = 1; i < Router::maxMaskBits; ++i) {
        outs.push_back(std::make_unique<Channel>(ChannelParams()));
        router->addOutPort(outs.back().get(), rp.bufDepth);
    }
    EXPECT_EQ(router->numOutPorts(), 64);
    EXPECT_THROW(router->addOutPort(&extra, rp.bufDepth),
                 std::runtime_error);
}

TEST(RouterMasks, WheelsFitTheSlowestInputLink)
{
    // A wheel has more slots than cyclesPerFlit x (timeSliced ? 2 : 1)
    // + latency on its slowest input: 4 + 1 on a fat tree, 8 + 1 on
    // the time-sliced cm5, 16 + 1 on a link degraded 4x.
    auto slots = [](const char *topology, double degraded) {
        NetworkParams np;
        np.numNodes = 16;
        np.degradedFraction = degraded;
        auto net = makeNetwork(topology, np);
        int most = 0;
        for (int r = 0; r < net->numRouters(); ++r)
            most = std::max(most, net->router(r).arrivals().slots());
        return most;
    };
    EXPECT_EQ(slots("fattree", 0), 8);
    EXPECT_EQ(slots("cm5", 0), 16);
    EXPECT_EQ(slots("fattree", 1), 32);
}

TEST(RouterMasks, SwallowedFlitsLeaveNoPendingBits)
{
    // Every packet dies at its first router-to-router hop: the
    // injector swallows flits the router already popped, and the
    // drained fabric must hold no pending bit anywhere: no arrival
    // on any wheel, no queued credit, and no unrouted, parked or
    // ready input VC.
    NetworkParams np;
    np.numNodes = 16;
    NetHarness h("fattree", np);
    FaultPlan plan;
    plan.dropProb = 1.0;
    FaultInjector faults(plan, 1, h.pool);
    faults.attachNetwork(*h.net);
    for (NodeId src = 0; src < 16; ++src)
        h.send(src, (src + 5) % 16, 64);
    h.runUntilQuiet(20000);
    h.run(10);
    EXPECT_EQ(faults.packetsDroppedInFabric(), 16u);
    for (int r = 0; r < h.net->numRouters(); ++r) {
        const Router &router = h.net->router(r);
        EXPECT_TRUE(router.arrivals().empty()) << "router " << r;
        EXPECT_EQ(router.creditsPending(), 0u) << "router " << r;
        EXPECT_EQ(router.unrouted(), 0u) << "router " << r;
        EXPECT_EQ(router.parked(), 0u) << "router " << r;
        EXPECT_EQ(router.ready(), 0u) << "router " << r;
    }
}

} // namespace
} // namespace nifdy
