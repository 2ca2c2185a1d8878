/**
 * @file
 * NIC sleep: a NIC the kernel skips must be woken by every event that
 * gives it work (DESIGN.md section 2.1). One case per wake source --
 * an eject arrival, a credit returned to a credit-starved stream, a
 * freed serializer, send(), pollReceive() with ack-on-accept, the
 * lossy timer bound, crash and restart -- each showing the NIC asleep
 * before the event and stepped at exactly the cycle the event names.
 * That sleeping changes no result is the determinism oracle's
 * (Determinism.SleepingMatchesAlwaysAwake).
 */

#include <gtest/gtest.h>

#include "nicharness.hh"

namespace nifdy
{
namespace
{

/** Step @p h one cycle at a time until @p pred holds; false if it
 * did not within @p limit cycles. */
template <typename Pred>
bool
stepUntil(NifdyHarness &h, Pred pred, Cycle limit = 20000)
{
    for (Cycle i = 0; i < limit; ++i) {
        if (pred())
            return true;
        h.kernel.step();
    }
    return pred();
}

/** Step @p h up to (not including) cycle @p at. */
void
stepTo(NifdyHarness &h, Cycle at)
{
    while (h.kernel.now() < at)
        h.kernel.step();
}

Channel *
injectOf(NifdyHarness &h, NodeId n)
{
    return h.net->nodePorts(n).inject;
}

TEST(NicWake, EjectArrivalWakesTheReceiver)
{
    NifdyHarness h(NifdyConfig{});
    h.run(50);
    ASSERT_EQ(h.nic(1).wake(), neverCycle) << "an idle NIC sleeps";
    Channel *eject = h.net->nodePorts(1).eject;
    h.send(0, 1);
    ASSERT_TRUE(stepUntil(h, [&] { return eject->inFlight() > 0; }));
    const Cycle arrival = eject->nextArrival();
    ASSERT_GT(arrival, h.kernel.now());
    EXPECT_EQ(h.nic(1).wake(), arrival);
    const std::uint64_t pumps = h.nic(1).pumpRuns();
    stepTo(h, arrival);
    EXPECT_EQ(h.nic(1).pumpRuns(), pumps) << "stepped before the flit";
    h.kernel.step();
    EXPECT_GT(h.nic(1).pumpRuns(), pumps);
    EXPECT_TRUE(eject->inFlight() == 0 || eject->nextArrival() > arrival)
        << "the head flit was not popped on arrival";
    EXPECT_TRUE(h.runUntilIdle());
}

TEST(NicWake, CreditReturnWakesAStarvedStream)
{
    // Node 1 stops polling and nodes 2 and 3 fill its arrivals FIFO,
    // so node 0's long packet backs up into node 0's injection
    // channel: the stream runs out of credits mid-packet.
    NifdyHarness h(NifdyConfig{});
    h.pollEnabled[1] = 0;
    h.send(2, 1);
    h.send(3, 1);
    ASSERT_TRUE(
        stepUntil(h, [&] { return h.nic(1).arrivalsPending() == 2; }));
    h.send(0, 1, 256);
    Channel *inject = injectOf(h, 0);
    h.run(2000);
    // Asleep mid-packet: no credit is queued and nothing else is due.
    ASSERT_GT(inject->totalFlits(), 0u);
    EXPECT_FALSE(h.nic(0).idle());
    EXPECT_EQ(h.nic(0).wake(), neverCycle);
    EXPECT_EQ(inject->nextCredit(), neverCycle);
    const std::uint64_t sent = inject->totalFlits();
    const std::uint64_t pumps = h.nic(0).pumpRuns();
    h.run(200);
    EXPECT_EQ(inject->totalFlits(), sent);
    EXPECT_EQ(h.nic(0).pumpRuns(), pumps) << "a starved stream polled";

    h.pollEnabled[1] = 1; // the backlog drains, credits come back
    ASSERT_TRUE(
        stepUntil(h, [&] { return inject->nextCredit() != neverCycle; }));
    const Cycle credit = inject->nextCredit();
    EXPECT_EQ(h.nic(0).wake(), credit);
    stepTo(h, credit);
    EXPECT_EQ(inject->totalFlits(), sent);
    h.kernel.step();
    EXPECT_EQ(inject->totalFlits(), sent + 1)
        << "the credit's cycle sends the next flit";
    EXPECT_TRUE(h.runUntilIdle());
}

TEST(NicWake, FreedSerializerWakesTheNextFlit)
{
    NifdyHarness h(NifdyConfig{});
    h.run(50);
    Channel *inject = injectOf(h, 0);
    h.send(0, 1);
    ASSERT_TRUE(stepUntil(h, [&] { return inject->totalFlits() == 1; }));
    // The head flit went; credits remain, so the next one goes when
    // the serializer frees.
    const Cycle free = inject->freeAt(NetClass::request);
    ASSERT_GT(free, h.kernel.now());
    EXPECT_EQ(h.nic(0).wake(), free);
    stepTo(h, free);
    EXPECT_EQ(inject->totalFlits(), 1u);
    h.kernel.step();
    EXPECT_EQ(inject->totalFlits(), 2u);
    EXPECT_TRUE(h.runUntilIdle());
}

TEST(NicWake, SendWakesAnIdleNic)
{
    NifdyHarness h(NifdyConfig{});
    h.run(50);
    ASSERT_EQ(h.nic(0).wake(), neverCycle);
    h.nic(0).send(h.makeData(0, 1), h.kernel.now());
    EXPECT_LE(h.nic(0).wake(), h.kernel.now());
    h.kernel.step();
    EXPECT_EQ(injectOf(h, 0)->totalFlits(), 1u)
        << "the head flit goes on the next cycle";
    EXPECT_TRUE(h.runUntilIdle());
}

TEST(NicWake, PollReceiveWakesTheAckOnAccept)
{
    NifdyConfig cfg;
    cfg.ackOnAccept = true;
    NifdyHarness h(cfg);
    h.pollEnabled[1] = 0;
    h.send(0, 1);
    ASSERT_TRUE(stepUntil(h, [&] {
        return h.nic(1).arrivalsPending() == 1 &&
               h.nic(1).wake() == neverCycle;
    }));
    Channel *inject = injectOf(h, 1);
    const std::uint64_t flits = inject->totalFlits();
    h.run(100);
    EXPECT_EQ(inject->totalFlits(), flits) << "no ack before the accept";
    Packet *pkt = h.nic(1).pollReceive(h.kernel.now());
    ASSERT_NE(pkt, nullptr);
    h.received[1].push_back(pkt);
    EXPECT_LE(h.nic(1).wake(), h.kernel.now());
    h.kernel.step();
    EXPECT_EQ(inject->totalFlits(), flits + 1)
        << "the ack's head flit goes on the next cycle";
    h.pollEnabled[1] = 1;
    EXPECT_TRUE(h.runUntilIdle());
}

TEST(NicWake, LossyTimerBoundWakesTheRetransmission)
{
    // Lossy NICs, no drops, a 500-cycle timer: node 1 never accepts,
    // so the ack never comes and the timer fires.
    NifdyHarness h(NifdyConfig{}, 4, "mesh2d", 0.0, 500);
    h.pollEnabled[1] = 0;
    h.send(0, 1);
    LossyNifdyNic &nic = h.lossyNic(0);
    ASSERT_TRUE(stepUntil(h, [&] {
        return h.nic(1).arrivalsPending() == 1 &&
               nic.wake() == nic.timerBound();
    }));
    const Cycle deadline = nic.timerBound();
    ASSERT_GT(deadline, h.kernel.now());
    const std::uint64_t pumps = nic.pumpRuns();
    stepTo(h, deadline);
    EXPECT_EQ(nic.pumpRuns(), pumps) << "stepped before the deadline";
    EXPECT_EQ(nic.retransmissions(), 0u);
    h.kernel.step();
    EXPECT_EQ(nic.retransmissions(), 1u);
    h.pollEnabled[1] = 1;
    EXPECT_TRUE(h.runUntilIdle());
}

TEST(NicWake, CrashAndRestartWakeTheNic)
{
    NifdyHarness h(NifdyConfig{});
    if (h.audit)
        h.audit->setExpectNodeFaults(true);
    h.run(50);
    ASSERT_EQ(h.nic(1).wake(), neverCycle);
    h.nic(1).crash(h.kernel.now());
    EXPECT_LE(h.nic(1).wake(), h.kernel.now());
    h.kernel.step();
    EXPECT_EQ(h.nic(1).wake(), neverCycle) << "a down NIC with nothing "
                                              "in flight sleeps";
    h.nic(1).restart(h.kernel.now());
    EXPECT_LE(h.nic(1).wake(), h.kernel.now());
    h.kernel.step();
    EXPECT_EQ(h.nic(1).wake(), neverCycle);
    // The restarted incarnation serves traffic.
    h.send(0, 1);
    EXPECT_TRUE(h.runUntilIdle());
    EXPECT_EQ(h.received[1].size(), 1u);
}

} // namespace
} // namespace nifdy
