/**
 * @file
 * Tests for the NIC base machinery and the protocol-free baselines
 * (PlainNic, BufferedNic): injection serialization, reassembly,
 * FIFO backpressure, head-of-line behavior, and statistics.
 */

#include <string>

#include <gtest/gtest.h>

#include "netharness.hh"
#include "sim/audit.hh"

namespace nifdy
{
namespace
{

NetworkParams
small()
{
    NetworkParams np;
    np.numNodes = 4;
    return np;
}

TEST(BufferedNic, DeliversAndCounts)
{
    NetHarness h("mesh2d", small());
    h.send(0, 3, 32);
    h.runUntilQuiet();
    EXPECT_EQ(h.nics[0]->packetsSent(), 1u);
    EXPECT_EQ(h.nics[3]->packetsDelivered(), 1u);
    EXPECT_EQ(h.nics[3]->wordsDelivered(), 8u);
    EXPECT_EQ(h.drainCount(3), 1);
}

TEST(BufferedNic, LatencyRecorded)
{
    NetHarness h("mesh2d", small());
    h.send(0, 3, 32);
    h.runUntilQuiet();
    EXPECT_EQ(h.nics[3]->latency().count(), 1u);
    EXPECT_GT(h.nics[3]->latency().mean(), 10.0);
    h.drainCount(3);
}

TEST(BufferedNic, OutgoingQueueCapacity)
{
    PacketPool pool;
    NetworkParams np = small();
    auto net = makeNetwork("mesh2d", np);
    NicParams nicp;
    nicp.vcsPerClass = net->params().vcsPerClass;
    BufferedNic nic(0, net->nodePorts(0), nicp, pool, 2);
    Packet *a = pool.alloc();
    a->dst = 1;
    a->sizeBytes = 8;
    EXPECT_TRUE(nic.canSend(*a));
    nic.send(a, 0);
    Packet *b = pool.alloc();
    b->dst = 1;
    b->sizeBytes = 8;
    nic.send(b, 0);
    Packet *c = pool.alloc();
    c->dst = 1;
    c->sizeBytes = 8;
    EXPECT_FALSE(nic.canSend(*c));
    EXPECT_THROW(nic.send(c, 0), std::logic_error);
    pool.release(c);
}

TEST(PlainNic, SingleOutgoingRegister)
{
    PacketPool pool;
    auto net = makeNetwork("mesh2d", small());
    NicParams nicp;
    nicp.vcsPerClass = net->params().vcsPerClass;
    PlainNic nic(0, net->nodePorts(0), nicp, pool);
    EXPECT_EQ(nic.outQueueCapacity(), 1);
    Packet *a = pool.alloc();
    a->dst = 1;
    a->sizeBytes = 8;
    nic.send(a, 0);
    Packet *b = pool.alloc();
    b->dst = 1;
    b->sizeBytes = 8;
    EXPECT_FALSE(nic.canSend(*b));
    pool.release(b);
}

TEST(BufferedNic, ArrivalsBackpressureHoldsPackets)
{
    // Don't poll the receiver: only arrivalFifo packets (plus the
    // ones parked in reassembly buffers) may be accepted; the rest
    // wait in the network or at the sender.
    PacketPool pool;
    Kernel kernel;
    NetworkParams np = small();
    auto net = makeNetwork("mesh2d", np);
    net->addToKernel(kernel);
    std::vector<std::unique_ptr<BufferedNic>> nics;
    for (NodeId n = 0; n < 4; ++n) {
        NicParams nicp;
        nicp.vcsPerClass = net->params().vcsPerClass;
        nicp.arrivalFifo = 2;
        nics.push_back(std::make_unique<BufferedNic>(
            n, net->nodePorts(n), nicp, pool, 16));
        nics.back()->setKernel(&kernel);
        kernel.add(nics.back().get());
    }
    for (int i = 0; i < 10; ++i) {
        Packet *p = pool.alloc();
        p->src = 0;
        p->dst = 3;
        p->sizeBytes = 32;
        nics[0]->send(p, 0);
    }
    kernel.run(20000);
    EXPECT_EQ(nics[3]->arrivalsPending(), 2);
    EXPECT_EQ(nics[3]->packetsDelivered(), 2u);
    // Now drain: everything arrives.
    int got = 0;
    for (int round = 0; round < 20000 && got < 10; ++round) {
        kernel.step();
        if (Packet *p = nics[3]->pollReceive(kernel.now())) {
            pool.release(p);
            ++got;
        }
    }
    EXPECT_EQ(got, 10);
}

TEST(BufferedNic, InterleavesRequestAndReplyClasses)
{
    NetHarness h("mesh2d", small());
    h.send(0, 3, 32, NetClass::request);
    h.send(0, 3, 32, NetClass::reply);
    h.runUntilQuiet();
    EXPECT_EQ(h.drainCount(3), 2);
}

TEST(BufferedNic, ManyPacketsConserved)
{
    NetHarness h("mesh2d", small());
    for (int i = 0; i < 50; ++i)
        for (NodeId s = 0; s < 4; ++s)
            h.send(s, (s + 1 + i % 3) % 4);
    h.runUntilQuiet();
    int total = 0;
    for (NodeId d = 0; d < 4; ++d)
        total += h.drainCount(d);
    EXPECT_EQ(total, 200);
    EXPECT_EQ(h.pool.live(), 0u);
}

TEST(BufferedNic, IdleReflectsState)
{
    NetHarness h("mesh2d", small());
    EXPECT_TRUE(h.nics[0]->idle());
    h.send(0, 3);
    EXPECT_FALSE(h.nics[0]->idle());
    h.runUntilQuiet();
    EXPECT_FALSE(h.nics[3]->idle()); // arrival not yet polled
    h.drainCount(3);
    EXPECT_TRUE(h.nics[3]->idle());
}

TEST(BufferedNic, SelfSendTraversesNetwork)
{
    NetHarness h("mesh2d", small());
    h.send(2, 2);
    h.runUntilQuiet();
    EXPECT_EQ(h.drainCount(2), 1);
}

/** Exposes the arrivals-FIFO occupancy test, reserved slots
 * included. */
class SlotNic : public BufferedNic
{
  public:
    using BufferedNic::BufferedNic;
    using BufferedNic::arrivalsFull;
};

/** Records the reason of every NIC-side drop. */
class DropRecorder : public InvariantChecker
{
  public:
    explicit DropRecorder(std::vector<std::string> *log) : log_(log) {}
    const char *name() const override { return "drop-recorder"; }
    void
    onDrop(const Packet &pkt, NodeId node, const char *why) override
    {
        (void)pkt;
        (void)node;
        log_->push_back(why);
    }

  private:
    std::vector<std::string> *log_;
};

TEST(BufferedNic, CrashForfeitsTheSlotOfAPacketMidReassembly)
{
    // The receiver never polls. A crash catches a packet in
    // reassembly while it holds the last arrivals slot, and the node
    // restarts before that packet's tail: the tail is still
    // black-holed, and the FIFO then takes exactly arrivalFifo
    // packets again (a leaked reservation would stop it one short).
    PacketPool pool;
    Kernel kernel;
    std::vector<std::string> drops;
    Audit audit;
    audit.add(std::make_unique<DropRecorder>(&drops));
    kernel.probes().attach(&audit);
    auto net = makeNetwork("mesh2d", small());
    net->addToKernel(kernel);
    std::vector<std::unique_ptr<SlotNic>> nics;
    for (NodeId n = 0; n < 4; ++n) {
        NicParams nicp;
        nicp.vcsPerClass = net->params().vcsPerClass;
        nicp.arrivalFifo = 2;
        nics.push_back(std::make_unique<SlotNic>(n, net->nodePorts(n),
                                                 nicp, pool, 16));
        nics.back()->setKernel(&kernel);
        kernel.add(nics.back().get());
    }
    SlotNic &rx = *nics[3];
    auto send = [&](int count) {
        for (int i = 0; i < count; ++i) {
            Packet *p = pool.alloc();
            p->src = 0;
            p->dst = 3;
            p->sizeBytes = 128; // 32 flits: a long reassembly
            nics[0]->send(p, kernel.now());
        }
    };

    send(2);
    kernel.run(20000, [&] { return rx.arrivalsPending() == 1; });
    kernel.run(20);
    ASSERT_EQ(rx.arrivalsPending(), 1);
    ASSERT_EQ(rx.packetsDelivered(), 1u);
    ASSERT_TRUE(rx.arrivalsFull()) << "the second packet holds no slot";

    rx.crash(kernel.now());
    EXPECT_EQ(rx.arrivalsPending(), 0);
    EXPECT_FALSE(rx.arrivalsFull());
    kernel.run(10);
    rx.restart(kernel.now());
    ASSERT_FALSE(rx.transitIdle()) << "the tail arrived before restart";
    kernel.run(20000, [&] { return rx.transitIdle(); });
    EXPECT_EQ(rx.packetsDelivered(), 1u);
    EXPECT_EQ(drops, (std::vector<std::string>{
                         "node crashed: arrival discarded",
                         "node crashed: delivery black-holed"}));

    send(4);
    kernel.run(20000);
    EXPECT_EQ(rx.arrivalsPending(), 2);
    EXPECT_TRUE(rx.arrivalsFull());
    int got = 0;
    kernel.run(20000, [&] {
        while (Packet *p = rx.pollReceive(kernel.now())) {
            pool.release(p);
            ++got;
        }
        return got == 4;
    });
    EXPECT_EQ(got, 4);
    EXPECT_EQ(drops.size(), 2u);
    EXPECT_EQ(pool.live(), 0u);
    kernel.probes().detachAll();
}

} // namespace
} // namespace nifdy
