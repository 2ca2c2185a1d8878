/**
 * @file
 * Invariant-audit layer tests: a clean run under full auditing
 * raises nothing, and seeded fault-injection mutants -- NICs that
 * double-send, swallow acks, break admission, sleep through a send,
 * corrupt bulk sequence numbers, or reorder a bulk window -- are
 * each caught by exactly the intended checker.
 */

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "harness/experiment.hh"
#include "nicharness.hh"
#include "sim/audit.hh"
#include "traffic/synthetic.hh"

namespace nifdy
{
namespace
{

/** Run @p fn; return the panic message ("" if nothing panicked). */
template <typename Fn>
std::string
panicMessage(Fn &&fn)
{
    try {
        fn();
    } catch (const std::logic_error &e) {
        return e.what();
    }
    return "";
}

NifdyConfig
smallConfig()
{
    NifdyConfig cfg;
    cfg.opt = 4;
    cfg.pool = 8;
    cfg.dialogs = 1;
    cfg.window = 4;
    return cfg;
}

//===------------------------------------------------------------===//
// Clean runs: no false positives, every hook exercised
//===------------------------------------------------------------===//

TEST(AuditClean, ScalarTrafficRaisesNothing)
{
    NifdyHarness h(smallConfig());
    Audit &audit = h.ensureAudit();
    for (int round = 0; round < 8; ++round)
        for (NodeId s = 0; s < 4; ++s)
            h.send(s, (s + 1 + round) % 4);
    ASSERT_TRUE(h.runUntilIdle());
    EXPECT_GT(audit.eventsSeen(), 0u);
    EXPECT_EQ(panicMessage([&] { audit.finish(); }), "");
}

TEST(AuditClean, BulkTrafficRaisesNothing)
{
    NifdyHarness h(smallConfig());
    Audit &audit = h.ensureAudit();
    h.send(0, 1, 32, true);
    for (int i = 0; i < 10; ++i)
        h.send(0, 1, 32, false, i == 9);
    ASSERT_TRUE(h.runUntilIdle());
    EXPECT_FALSE(h.received[1].empty());
    EXPECT_EQ(panicMessage([&] { audit.finish(); }), "");
}

TEST(AuditClean, LossyRetransmissionsRaiseNothing)
{
    // Drops, retransmission clones, and duplicate filtering are all
    // legal protocol behavior the lifecycle checker must tolerate.
    NifdyHarness h(smallConfig(), 4, "mesh2d", 0.2, 400);
    Audit &audit = h.ensureAudit();
    for (int round = 0; round < 6; ++round)
        for (NodeId s = 0; s < 4; ++s)
            h.send(s, (s + 1) % 4);
    ASSERT_TRUE(h.runUntilIdle());
    EXPECT_EQ(panicMessage([&] { audit.finish(); }), "");
}

class AuditedExperiment
    : public ::testing::TestWithParam<std::string>
{
};

TEST_P(AuditedExperiment, HeavyTrafficRaisesNothing)
{
    ExperimentConfig cfg;
    cfg.topology = GetParam();
    cfg.numNodes = 16;
    cfg.audit = true;
    Experiment exp(cfg);
    ASSERT_NE(exp.audit(), nullptr);
    for (NodeId n = 0; n < exp.numNodes(); ++n)
        exp.setWorkload(n, std::make_unique<SyntheticWorkload>(
                               exp.proc(n), exp.msg(n), exp.barrier(),
                               exp.numNodes(),
                               SyntheticParams::heavy(), 7));
    // The workload never finishes; the point is that 40k cycles of
    // heavy audited traffic raise no violation. finish() is not
    // called: packets legitimately remain in flight.
    EXPECT_EQ(panicMessage([&] { exp.runFor(40000); }), "");
    EXPECT_GT(exp.packetsDelivered(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Topologies, AuditedExperiment,
                         ::testing::Values("mesh2d", "butterfly",
                                           "fattree"),
                         [](const auto &info) {
                             std::string n = info.param;
                             for (auto &c : n)
                                 if (c == '-')
                                     c = '_';
                             return n;
                         });

//===------------------------------------------------------------===//
// Checker unit tests (direct event injection, no network needed)
//===------------------------------------------------------------===//

TEST(AuditLifecycle, LeakCaughtAtFinish)
{
    Audit audit;
    audit.installStandardCheckers(false);
    Packet pkt;
    pkt.id = 42;
    audit.alloc(pkt);
    audit.inject(pkt, 0);
    std::string msg = panicMessage([&] { audit.finish(); });
    EXPECT_NE(msg.find("audit[lifecycle]"), std::string::npos) << msg;
    EXPECT_NE(msg.find("leaked"), std::string::npos) << msg;
}

TEST(AuditLifecycle, ProvenanceTrailInReport)
{
    Audit audit;
    audit.installStandardCheckers(false);
    Packet pkt;
    pkt.id = 7;
    audit.alloc(pkt);
    audit.send(pkt, 2);
    audit.inject(pkt, 2);
    audit.hop(pkt, 5);
    std::string msg = panicMessage([&] { audit.release(pkt); });
    EXPECT_NE(msg.find("audit[lifecycle]"), std::string::npos) << msg;
    // The report carries the full recorded history of the packet.
    EXPECT_NE(msg.find("inject at nic2"), std::string::npos) << msg;
    EXPECT_NE(msg.find("hop through router5"), std::string::npos)
        << msg;
}

TEST(AuditCapacity, OverCommittedChannelCaught)
{
    ChannelParams cp;
    cp.cyclesPerFlit = 1;
    cp.latency = 100; // keep both flits in flight
    Channel ch(cp);
    Packet pkt;
    Flit f;
    f.pkt = &pkt;
    f.head = f.tail = true;
    Audit audit;
    audit.installStandardCheckers(false);
    audit.watchChannel(&ch, 1); // pretend the consumer has 1 slot
    ch.push(f, 0);
    ch.push(f, 1);
    std::string msg = panicMessage([&] { audit.endCycle(1); });
    EXPECT_NE(msg.find("audit[capacity]"), std::string::npos) << msg;
}

TEST(AuditCapacity, ChannelPushPanicsPastCreditBound)
{
    // The satellite hard check: Channel::push itself aborts on
    // overflow, audit attached or not.
    ChannelParams cp;
    cp.cyclesPerFlit = 1;
    cp.latency = 100;
    Channel ch(cp);
    ch.setCapacityFlits(1);
    Packet pkt;
    Flit f;
    f.pkt = &pkt;
    f.head = f.tail = true;
    ch.push(f, 0);
    std::string msg = panicMessage([&] { ch.push(f, 1); });
    EXPECT_NE(msg.find("channel over capacity"), std::string::npos)
        << msg;
}

//===------------------------------------------------------------===//
// Fault-injection mutants, each tripping exactly one checker
//===------------------------------------------------------------===//

/** Injects a clone of the first scalar data packet it sends -- the
 * same packet id enters the network twice. */
class DoubleSendNic : public NifdyNic
{
  public:
    using NifdyNic::NifdyNic;

  protected:
    Packet *
    nextToInject(NetClass cls, Cycle now) override
    {
        if (clone_ && clone_->netClass == cls) {
            Packet *c = clone_;
            clone_ = nullptr;
            return c;
        }
        Packet *p = NifdyNic::nextToInject(cls, now);
        if (p && !cloned_ && p->type == PacketType::scalar &&
            !p->ctrlOnly) {
            Packet *c = pool_.alloc();
            *c = *p; // aliases p's id: a true duplicate transmission
            clone_ = c;
            cloned_ = true;
        }
        return p;
    }

  private:
    Packet *clone_ = nullptr;
    bool cloned_ = false;
};

/** Swallows incoming acks: releases them with no recorded reason. */
class AckDropNic : public NifdyNic
{
  public:
    using NifdyNic::NifdyNic;

  protected:
    void
    onPacketDelivered(Packet *pkt, Cycle now) override
    {
        if (pkt->type == PacketType::ack) {
            pool_.release(pkt);
            return;
        }
        NifdyNic::onPacketDelivered(pkt, now);
    }
};

/** Breaks admission control: everything is always eligible. */
class BrokenEligibilityNic : public NifdyNic
{
  public:
    using NifdyNic::NifdyNic;

  protected:
    bool
    eligibleScalar(const Packet &pkt, std::size_t idx) const override
    {
        (void)pkt;
        (void)idx;
        return true;
    }
};

/** Admission that also reads the cycle, which no writer reports to
 * the pool-blocked bits: nothing is admissible before cycle 200. It
 * reads the kernel's clock, which runs while the NIC sleeps. */
class ClockedEligibilityNic : public NifdyNic
{
  public:
    using NifdyNic::NifdyNic;

    /** The clock every instance reads; the test sets it. */
    static inline const Kernel *clock = nullptr;

  protected:
    bool
    eligibleScalar(const Packet &pkt, std::size_t idx) const override
    {
        return clock->now() >= 200 &&
               NifdyNic::eligibleScalar(pkt, idx);
    }
};

/** Its send() leaves the NIC asleep, so the kernel would skip the
 * pooled packet until some other event woke the NIC. */
class SleepySendNic : public NifdyNic
{
  public:
    using NifdyNic::NifdyNic;

    void
    send(Packet *pkt, Cycle now) override
    {
        const Cycle wake = this->wake();
        NifdyNic::send(pkt, now);
        sleepUntil(wake);
    }
};

/** Corrupts the wire sequence number of bulk packets past index 0
 * (the monotone index stays right, so the receiver buffers them). */
class BulkSeqCorruptNic : public NifdyNic
{
  public:
    using NifdyNic::NifdyNic;

  protected:
    void
    onDataInjected(Packet *pkt, Cycle now) override
    {
        NifdyNic::onDataInjected(pkt, now);
        if (pkt->type == PacketType::bulk && !pkt->ctrlOnly &&
            pkt->bulkIndex >= 1)
            pkt->seq = static_cast<std::int16_t>(
                (pkt->seq + 3) % config().seqSpace());
    }
};

/** Swaps the labels of bulk packets 1 and 2, so the receive window
 * reorders them relative to send order. */
class BulkSwapNic : public NifdyNic
{
  public:
    using NifdyNic::NifdyNic;

  protected:
    void
    onDataInjected(Packet *pkt, Cycle now) override
    {
        NifdyNic::onDataInjected(pkt, now);
        if (pkt->type != PacketType::bulk || pkt->ctrlOnly)
            return;
        if (pkt->bulkIndex == 1)
            relabel(pkt, 2);
        else if (pkt->bulkIndex == 2)
            relabel(pkt, 1);
    }

  private:
    void
    relabel(Packet *pkt, std::int64_t idx)
    {
        pkt->bulkIndex = idx;
        pkt->seq = bulkSeq(idx, config().window);
    }
};

template <typename MutantNic>
NifdyHarness::NicFactory
mutateNode(NodeId node)
{
    return [node](NodeId n, const Network::NodePorts &ports,
                  const NicParams &nicp, const NifdyConfig &cfg,
                  PacketPool &pool) -> std::unique_ptr<NifdyNic> {
        if (n == node)
            return std::make_unique<MutantNic>(n, ports, nicp, cfg,
                                               pool);
        return std::make_unique<NifdyNic>(n, ports, nicp, cfg, pool);
    };
}

TEST(AuditMutants, DoubleSendCaughtByLifecycle)
{
    NifdyHarness h(smallConfig(), 4, "mesh2d", -1.0, 3000,
                   mutateNode<DoubleSendNic>(0));
    h.ensureAudit();
    h.send(0, 1);
    h.send(0, 2);
    std::string msg = panicMessage([&] { h.runUntilIdle(); });
    EXPECT_NE(msg.find("audit[lifecycle]"), std::string::npos) << msg;
    EXPECT_NE(msg.find("injected into the network twice"),
              std::string::npos)
        << msg;
}

TEST(AuditMutants, SwallowedAckCaughtByLifecycle)
{
    NifdyHarness h(smallConfig(), 4, "mesh2d", -1.0, 3000,
                   mutateNode<AckDropNic>(0));
    h.ensureAudit();
    h.send(0, 1); // node 0 receives (and swallows) the ack
    std::string msg = panicMessage([&] { h.runUntilIdle(); });
    EXPECT_NE(msg.find("audit[lifecycle]"), std::string::npos) << msg;
    EXPECT_NE(msg.find("released back to the pool while in flight"),
              std::string::npos)
        << msg;
}

TEST(AuditMutants, BrokenAdmissionCaughtByOptDiscipline)
{
    NifdyHarness h(smallConfig(), 4, "mesh2d", -1.0, 3000,
                   mutateNode<BrokenEligibilityNic>(0));
    h.ensureAudit();
    h.pollEnabled[1] = 0; // no accepts, so no acks clear the OPT
    h.send(0, 1);
    h.send(0, 1); // second outstanding packet for the same dest
    std::string msg = panicMessage([&] { h.run(5000); });
    EXPECT_NE(msg.find("audit[opt-discipline]"), std::string::npos)
        << msg;
    EXPECT_NE(msg.find("two outstanding scalar packets"),
              std::string::npos)
        << msg;
}

TEST(AuditMutants, UnwatchedAdmissionStateCaughtByOptDiscipline)
{
    // The scan before cycle 200 blocks the pool, and nothing tells
    // the NIC when the clock opens admission, so the packet is
    // admissible while its class's scan is skipped.
    NifdyHarness h(smallConfig(), 4, "mesh2d", -1.0, 3000,
                   mutateNode<ClockedEligibilityNic>(0));
    ClockedEligibilityNic::clock = &h.kernel;
    h.ensureAudit();
    h.send(0, 1);
    std::string msg = panicMessage([&] { h.run(5000); });
    EXPECT_NE(msg.find("audit[opt-discipline]"), std::string::npos)
        << msg;
    EXPECT_NE(msg.find("request pool scan skipped while a pooled "
                       "packet is admissible"),
              std::string::npos)
        << msg;
}

TEST(AuditMutants, SleepingSendCaughtByWakeDiscipline)
{
    NifdyHarness h(smallConfig(), 4, "mesh2d", -1.0, 3000,
                   mutateNode<SleepySendNic>(0));
    h.ensureAudit();
    h.run(100); // nothing to do: node 0's NIC sleeps
    h.send(0, 1);
    std::string msg = panicMessage([&] { h.run(1000); });
    EXPECT_NE(msg.find("audit[wake-discipline]"), std::string::npos)
        << msg;
    EXPECT_NE(msg.find("node 0 NIC sleeps until never but has work at "
                       "cycle "),
              std::string::npos)
        << msg;
}

TEST(AuditMutants, CorruptBulkSeqCaughtByOptDiscipline)
{
    NifdyConfig cfg = smallConfig();
    cfg.ackOnAccept = false; // acks flow without processor polls
    NifdyHarness h(cfg, 4, "mesh2d", -1.0, 3000,
                   mutateNode<BulkSeqCorruptNic>(0));
    h.ensureAudit();
    h.pollEnabled[1] = 0; // arrivals FIFO fills; packets park in the
                          // receive window where the check sees them
    h.send(0, 1, 32, true);
    for (int i = 0; i < 6; ++i)
        h.send(0, 1, 32, false, i == 5);
    std::string msg = panicMessage([&] { h.run(20000); });
    EXPECT_NE(msg.find("audit[opt-discipline]"), std::string::npos)
        << msg;
    EXPECT_NE(msg.find("wire sequence number"), std::string::npos)
        << msg;
}

TEST(AuditMutants, ReorderedBulkWindowCaughtByDeliveryOrder)
{
    NifdyHarness h(smallConfig(), 4, "mesh2d", -1.0, 3000,
                   mutateNode<BulkSwapNic>(0));
    h.ensureAudit();
    h.send(0, 1, 32, true);
    for (int i = 0; i < 6; ++i)
        h.send(0, 1, 32, false, i == 5);
    std::string msg = panicMessage([&] { h.runUntilIdle(); });
    EXPECT_NE(msg.find("audit[delivery-order]"), std::string::npos)
        << msg;
    EXPECT_NE(msg.find("out-of-order delivery"), std::string::npos)
        << msg;
}

} // namespace
} // namespace nifdy
