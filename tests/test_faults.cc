/**
 * @file
 * Fault-injection subsystem tests: FaultPlan parsing/validation,
 * deterministic in-fabric drops and corruption, link-down windows
 * with adaptive rerouting, exponential backoff with retry caps,
 * dead-peer graceful degradation, retransmission provenance, and
 * the soak grid -- every workload on every paper topology under 5%
 * and 10% in-fabric drop delivers byte-identical per-flow payload
 * streams with the invariant audit attached.
 */

#include <algorithm>
#include <array>
#include <fstream>
#include <map>
#include <sstream>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "campaign/engine.hh"
#include "harness/experiment.hh"
#include "nicharness.hh"
#include "sim/config.hh"
#include "sim/fault.hh"
#include "traffic/cshift.hh"
#include "traffic/em3d.hh"
#include "traffic/radixsort.hh"
#include "traffic/synthetic.hh"

namespace nifdy
{
namespace
{

//===------------------------------------------------------------===//
// Delivered-stream recording (byte-identical soak comparisons)
//===------------------------------------------------------------===//

/** Per-flow delivered tuples, keyed by (receiver, sender). The
 * delivery hook fires after protocol dedup, so this is the stream
 * the software actually consumes. */
struct DeliveryLog
{
    using Tuple = std::array<long, 3>; // msgId, msgSeq, payloadWords
    std::map<std::pair<NodeId, NodeId>, std::vector<Tuple>> flows;
};

class DeliveryRecorder : public InvariantChecker
{
  public:
    explicit DeliveryRecorder(DeliveryLog *log) : log_(log) {}
    const char *name() const override { return "delivery-recorder"; }
    void
    onDeliver(const Packet &pkt, NodeId node) override
    {
        log_->flows[{node, pkt.src}].push_back(
            {static_cast<long>(pkt.msgId),
             static_cast<long>(pkt.msgSeq),
             static_cast<long>(pkt.payloadWords)});
    }

  private:
    DeliveryLog *log_;
};

/** Open-ended runs stop mid-stream, and adaptive topologies can
 * interleave concurrent messages' fragments differently at the
 * arrival hook even fault-free, so positional equality is too
 * strict. The invariant that must hold: any message both runs
 * delivered in full carries byte-identical fragments. Messages still
 * in flight at either run's cycle budget are skipped. */
void
expectMessagesIdentical(const DeliveryLog &base,
                        const DeliveryLog &other)
{
    auto group = [](const std::vector<DeliveryLog::Tuple> &v) {
        std::map<long, std::vector<DeliveryLog::Tuple>> m;
        for (const auto &t : v)
            m[t[0]].push_back(t);
        for (auto &e : m)
            std::sort(e.second.begin(), e.second.end());
        return m;
    };
    std::size_t compared = 0;
    for (const auto &kv : other.flows) {
        auto it = base.flows.find(kv.first);
        if (it == base.flows.end())
            continue;
        auto bm = group(it->second);
        auto om = group(kv.second);
        for (const auto &msg : om) {
            auto bit = bm.find(msg.first);
            if (bit == bm.end() ||
                bit->second.size() != msg.second.size())
                continue; // cut off mid-message in one of the runs
            ++compared;
            ASSERT_EQ(bit->second, msg.second)
                << "flow " << kv.first.second << " -> "
                << kv.first.first << " message " << msg.first
                << " differs between runs";
        }
    }
    EXPECT_GT(compared, 0u) << "no messages overlapped between runs";
}

std::uint64_t
totalRetransmissions(Experiment &exp)
{
    std::uint64_t total = 0;
    for (NodeId n = 0; n < exp.numNodes(); ++n)
        if (auto *ln = dynamic_cast<LossyNifdyNic *>(&exp.nic(n)))
            total += ln->retransmissions();
    return total;
}

//===------------------------------------------------------------===//
// Soak grid: workloads x topologies x fault severity
//===------------------------------------------------------------===//

struct SoakResult
{
    DeliveryLog log;
    bool completed = false;
    std::uint64_t delivered = 0;
    std::uint64_t retransmissions = 0;
    std::uint64_t fabricDrops = 0;
    int deadPeers = 0;
    int iterations = 0; // em3d only
};

ExperimentConfig
soakCfg(const std::string &topo, double fabricDrop)
{
    ExperimentConfig cfg;
    cfg.topology = topo;
    cfg.numNodes = topo == "mesh3d" ? 8 : 16;
    cfg.nicKind = NicKind::lossy;
    cfg.msg.packetWords = 6;
    cfg.audit = true;
    cfg.seed = 1;
    cfg.lossy.retxTimeout = 1500;
    cfg.lossy.backoffFactor = 2.0;
    cfg.lossy.maxRetxTimeout = 12000;
    cfg.lossy.jitterFrac = 0.25;
    cfg.lossy.maxRetries = 30; // bounded retries, never hit at 10%
    cfg.fault.dropProb = fabricDrop;
    return cfg;
}

void
runSoak(const std::string &topo, const std::string &workload,
        double fabricDrop, SoakResult &res)
{
    ExperimentConfig cfg = soakCfg(topo, fabricDrop);
    std::unique_ptr<CShiftBoard> board;
    std::unique_ptr<Em3dGraph> graph;
    Experiment exp(cfg);
    exp.audit()->add(std::make_unique<DeliveryRecorder>(&res.log));

    bool finite = false;
    if (workload == "cshift") {
        finite = true;
        CShiftParams cp;
        cp.wordsPerPair = 12;
        board = std::make_unique<CShiftBoard>(exp.numNodes());
        for (NodeId n = 0; n < exp.numNodes(); ++n)
            exp.setWorkload(n, std::make_unique<CShiftWorkload>(
                                   exp.proc(n), exp.msg(n),
                                   exp.barrier(), exp.numNodes(), cp,
                                   *board, 1));
    } else if (workload == "radixsort") {
        finite = true;
        RadixParams rp;
        rp.buckets = 16;
        for (NodeId n = 0; n < exp.numNodes(); ++n)
            exp.setWorkload(n, std::make_unique<RadixScanWorkload>(
                                   exp.proc(n), exp.msg(n),
                                   exp.numNodes(), rp, 1));
    } else if (workload == "em3d") {
        Em3dParams p = Em3dParams::light();
        p.nNodes = 24; // small graph for soak speed
        graph = std::make_unique<Em3dGraph>(exp.numNodes(), p, 3);
        for (NodeId n = 0; n < exp.numNodes(); ++n)
            exp.setWorkload(n, std::make_unique<Em3dWorkload>(
                                   exp.proc(n), exp.msg(n),
                                   exp.barrier(), *graph, 1));
    } else {
        ASSERT_EQ(workload, "synthetic") << "unknown soak workload";
        for (NodeId n = 0; n < exp.numNodes(); ++n)
            exp.setWorkload(n, std::make_unique<SyntheticWorkload>(
                                   exp.proc(n), exp.msg(n),
                                   exp.barrier(), exp.numNodes(),
                                   SyntheticParams::heavy(), 1));
    }

    if (finite) {
        exp.runUntilDone(8000000);
        res.completed = exp.allDone();
    } else if (workload == "em3d") {
        exp.runFor(300000);
        auto *w = dynamic_cast<Em3dWorkload *>(exp.workload(0));
        ASSERT_NE(w, nullptr);
        res.iterations = w->iterations();
        res.completed = true;
    } else {
        // Synthetic traffic runs forever; "completes" here means the
        // machine keeps delivering (a wedged fabric stops cold). A
        // full heavy phase can legitimately outlast the window at
        // 10% per-hop drop, so the barrier alone is too strict.
        exp.runFor(200000);
        res.completed = exp.packetsDelivered() > 200 ||
                        exp.barrier().generation() > 0;
    }
    res.delivered = exp.packetsDelivered();
    res.retransmissions = totalRetransmissions(exp);
    res.fabricDrops =
        exp.faults() ? exp.faults()->packetsDroppedInFabric() : 0;
    res.deadPeers = exp.totalDeadPeers();
}

/**
 * The satellite soak property: under 5% and 10% per-hop drop, the
 * workload still completes (or keeps making progress), no peer is
 * ever declared dead (the retry budget is generous), and the
 * delivered per-flow streams are identical to the fault-free run.
 */
void
soakWorkloadEverywhere(const std::string &workload, bool finite)
{
    for (const std::string &topo : paperTopologies()) {
        SCOPED_TRACE(workload + " on " + topo);
        SoakResult base;
        runSoak(topo, workload, 0.0, base);
        ASSERT_TRUE(base.completed);
        EXPECT_EQ(base.fabricDrops, 0u);
        for (double drop : {0.05, 0.10}) {
            SCOPED_TRACE(drop);
            SoakResult faulty;
            runSoak(topo, workload, drop, faulty);
            ASSERT_TRUE(faulty.completed);
            EXPECT_EQ(faulty.deadPeers, 0);
            EXPECT_GT(faulty.fabricDrops, 0u);
            EXPECT_GT(faulty.retransmissions, 0u);
            if (workload == "em3d") {
                EXPECT_GE(faulty.iterations, 1);
            }
            if (finite)
                EXPECT_EQ(faulty.log.flows, base.log.flows);
            else
                expectMessagesIdentical(base.log, faulty.log);
        }
    }
}

TEST(FaultSoak, CShiftAllTopologies)
{
    soakWorkloadEverywhere("cshift", true);
}

TEST(FaultSoak, RadixsortAllTopologies)
{
    soakWorkloadEverywhere("radixsort", true);
}

TEST(FaultSoak, Em3dAllTopologies)
{
    soakWorkloadEverywhere("em3d", false);
}

TEST(FaultSoak, SyntheticAllTopologies)
{
    soakWorkloadEverywhere("synthetic", false);
}

//===------------------------------------------------------------===//
// Determinism
//===------------------------------------------------------------===//

TEST(FaultDeterminism, SameSeedSamePlanBitReproducible)
{
    auto fingerprint = [](DeliveryLog &log) {
        ExperimentConfig cfg = soakCfg("mesh2d", 0.08);
        cfg.fault.corruptProb = 0.02;
        cfg.seed = 7;
        CShiftParams cp;
        cp.wordsPerPair = 12;
        CShiftBoard board(cfg.numNodes);
        Experiment exp(cfg);
        exp.audit()->add(std::make_unique<DeliveryRecorder>(&log));
        for (NodeId n = 0; n < exp.numNodes(); ++n)
            exp.setWorkload(n, std::make_unique<CShiftWorkload>(
                                   exp.proc(n), exp.msg(n),
                                   exp.barrier(), exp.numNodes(), cp,
                                   board, 1));
        exp.runUntilDone(8000000);
        EXPECT_TRUE(exp.allDone());
        return std::make_tuple(
            exp.kernel().now(), exp.packetsDelivered(),
            totalRetransmissions(exp),
            exp.faults()->packetsDroppedInFabric(),
            exp.faults()->flitsDroppedInFabric(),
            exp.faults()->packetsCorrupted());
    };
    DeliveryLog logA;
    DeliveryLog logB;
    auto a = fingerprint(logA);
    auto b = fingerprint(logB);
    EXPECT_EQ(a, b);
    EXPECT_EQ(logA.flows, logB.flows);
}

//===------------------------------------------------------------===//
// Link-down windows and rerouting
//===------------------------------------------------------------===//

TEST(FaultLinkDown, TransientOutageReroutesAndStaysOrdered)
{
    // Path-diverse topologies route around a mid-run outage; the
    // delivery-order checker stays attached the whole time.
    for (const std::string &topo :
         {std::string("fattree"), std::string("mesh2d-adaptive")}) {
        SCOPED_TRACE(topo);
        ExperimentConfig cfg;
        cfg.topology = topo;
        cfg.numNodes = 16;
        cfg.nicKind = NicKind::nifdy;
        cfg.msg.packetWords = 6;
        cfg.audit = true;
        cfg.fault.randomDownLinks = 2;
        cfg.fault.randomDownFrom = 2000;
        cfg.fault.randomDownFor = 30000;
        CShiftParams cp;
        cp.wordsPerPair = 12;
        CShiftBoard board(cfg.numNodes);
        Experiment exp(cfg);
        ASSERT_NE(exp.faults(), nullptr);
        EXPECT_EQ(exp.faults()->linksDowned(), 2);
        for (NodeId n = 0; n < exp.numNodes(); ++n)
            exp.setWorkload(n, std::make_unique<CShiftWorkload>(
                                   exp.proc(n), exp.msg(n),
                                   exp.barrier(), exp.numNodes(), cp,
                                   board, 1));
        exp.runUntilDone(8000000);
        EXPECT_TRUE(exp.allDone());
    }
}

TEST(FaultLinkDown, ExplicitWindowGatesChannel)
{
    NifdyConfig cfg;
    NifdyHarness h(cfg);
    ASSERT_GT(h.net->numInternalChannels(), 0);
    FaultPlan plan;
    plan.linkDown.push_back({0, 100, 200});
    h.attachFaults(plan);
    Channel &ch = h.net->internalChannel(0);
    EXPECT_FALSE(ch.downAt(99));
    EXPECT_TRUE(ch.downAt(100));
    EXPECT_TRUE(ch.downAt(199));
    EXPECT_FALSE(ch.downAt(200));
    // Permanent window on another link.
    FaultPlan perm;
    perm.linkDown.push_back({1, 50, 0});
    NifdyHarness h2(cfg);
    h2.attachFaults(perm);
    EXPECT_TRUE(h2.net->internalChannel(1).downAt(1000000));
    EXPECT_FALSE(h2.net->internalChannel(1).downAt(49));
}

TEST(FaultLinkDown, OutOfRangeLinkIsFatal)
{
    NifdyConfig cfg;
    NifdyHarness h(cfg);
    FaultPlan plan;
    plan.linkDown.push_back({9999, 0, 0});
    EXPECT_THROW(h.attachFaults(plan), std::runtime_error);
}

//===------------------------------------------------------------===//
// Backoff, retry caps, dead peers, provenance (harness level)
//===------------------------------------------------------------===//

TEST(FaultRecovery, TimerBacksOffExponentiallyToCap)
{
    NifdyConfig cfg;
    LossyConfig lc;
    lc.retxTimeout = 500;
    lc.backoffFactor = 2.0;
    lc.maxRetxTimeout = 3000;
    NifdyHarness h(cfg, lc);
    FaultPlan plan;
    plan.dropProb = 1.0; // black hole: nothing ever arrives
    h.attachFaults(plan);
    h.ensureAudit();
    h.send(0, 3);
    h.run(20000);
    // 500 -> 1000 -> 2000 -> 3000 (capped), still retrying forever.
    EXPECT_EQ(h.lossyNic(0).scalarRetxTimeout(3), 3000u);
    EXPECT_GE(h.lossyNic(0).retransmissions(), 4u);
    EXPECT_TRUE(h.lossyNic(0).deadPeers().empty());
}

TEST(FaultRecovery, RetryCapDeclaresPeerDeadAndDiscardsLaterSends)
{
    NifdyConfig cfg;
    LossyConfig lc;
    lc.retxTimeout = 300;
    lc.maxRetries = 2;
    NifdyHarness h(cfg, lc);
    FaultPlan plan;
    plan.dropProb = 1.0;
    h.attachFaults(plan);
    h.ensureAudit();
    h.send(0, 3);
    h.run(10000);
    ASSERT_TRUE(h.lossyNic(0).isPeerDead(3));
    EXPECT_EQ(h.lossyNic(0).retransmissions(), 2u);
    // Dead peers cannot wedge the drain: everything is idle again.
    EXPECT_TRUE(h.runUntilIdle(50000));
    // Later sends are accepted and discarded, not queued forever.
    h.send(0, 3);
    h.run(2000);
    EXPECT_EQ(h.lossyNic(0).sendsToDeadPeers(), 1u);
    EXPECT_TRUE(h.runUntilIdle(50000));
    // Only the peer actually probed was declared dead (the blackout
    // plan would kill any peer, but nothing was sent elsewhere).
    EXPECT_FALSE(h.lossyNic(0).isPeerDead(1));
    EXPECT_EQ(h.lossyNic(0).deadPeers().size(), 1u);
}

TEST(FaultRecovery, RetransmissionCarriesProvenance)
{
    NifdyConfig cfg;
    LossyConfig lc;
    lc.retxTimeout = 400;
    NifdyHarness h(cfg, lc);
    FaultPlan plan;
    plan.dropProb = 1.0;
    plan.maxDrops = 1; // exactly the original is swallowed
    h.attachFaults(plan);
    h.ensureAudit();
    Packet *sent = h.send(0, 3);
    std::uint64_t origId = sent->id;
    std::uint32_t tag = sent->msgId;
    EXPECT_TRUE(h.runUntilIdle(100000));
    ASSERT_EQ(h.received[3].size(), 1u);
    const Packet &got = *h.received[3][0];
    // The delivered packet is the clone: fresh cycle stamps, attempt
    // number, and a link back to the original transmission.
    EXPECT_EQ(got.cloneOf, origId);
    EXPECT_EQ(got.attempt, 1);
    EXPECT_EQ(got.msgId, tag);
    EXPECT_GE(got.createdAt, 400u);
    EXPECT_EQ(h.faults->packetsDroppedInFabric(), 1u);
    EXPECT_EQ(h.lossyNic(0).retransmissions(), 1u);
}

TEST(FaultRecovery, CorruptedPacketDiscardedByCrcAndRecovered)
{
    NifdyConfig cfg;
    LossyConfig lc;
    lc.retxTimeout = 400;
    NifdyHarness h(cfg, lc);
    FaultPlan plan;
    plan.corruptProb = 1.0;
    plan.maxDrops = 1; // corrupt exactly one packet
    h.attachFaults(plan);
    h.ensureAudit();
    h.send(0, 3);
    EXPECT_TRUE(h.runUntilIdle(100000));
    ASSERT_EQ(h.received[3].size(), 1u);
    EXPECT_FALSE(h.received[3][0]->corrupted);
    EXPECT_EQ(h.faults->packetsCorrupted(), 1u);
    EXPECT_EQ(h.lossyNic(3).corruptDropped(), 1u);
    EXPECT_EQ(h.lossyNic(0).retransmissions(), 1u);
}

TEST(FaultAudit, UnexpectedFabricLossIsAViolation)
{
    // A lossless fabric must not lose packets: with expectFaults
    // withdrawn, the fault-discipline checker panics on the first
    // injected drop.
    NifdyConfig cfg;
    LossyConfig lc;
    NifdyHarness h(cfg, lc);
    FaultPlan plan;
    plan.dropProb = 1.0;
    h.attachFaults(plan);
    h.ensureAudit().setExpectFaults(false);
    h.send(0, 3);
    EXPECT_THROW(h.run(50000), std::logic_error);
}

TEST(FaultAudit, FaultEventsAreCounted)
{
    NifdyConfig cfg;
    LossyConfig lc;
    lc.retxTimeout = 400;
    NifdyHarness h(cfg, lc);
    FaultPlan plan;
    plan.dropProb = 1.0;
    plan.maxDrops = 1;
    h.attachFaults(plan);
    Audit &audit = h.ensureAudit();
    h.send(0, 3);
    EXPECT_TRUE(h.runUntilIdle(100000));
    EXPECT_EQ(audit.fabricDrops(), 1u);
    EXPECT_GE(audit.retransmits(), 1u);
}

//===------------------------------------------------------------===//
// Dead-peer graceful termination at experiment level
//===------------------------------------------------------------===//

TEST(FaultRecovery, PartitionedRunTerminatesWithDiagnosis)
{
    ExperimentConfig cfg;
    cfg.topology = "mesh2d";
    cfg.numNodes = 16;
    cfg.nicKind = NicKind::lossy;
    cfg.msg.packetWords = 6;
    cfg.audit = true;
    cfg.lossy.retxTimeout = 400;
    cfg.lossy.backoffFactor = 2.0;
    cfg.lossy.maxRetxTimeout = 1600;
    cfg.lossy.maxRetries = 3;
    cfg.fault.dropProb = 1.0; // total blackout
    CShiftParams cp;
    cp.wordsPerPair = 12;
    CShiftBoard board(cfg.numNodes);
    Experiment exp(cfg);
    for (NodeId n = 0; n < exp.numNodes(); ++n)
        exp.setWorkload(n, std::make_unique<CShiftWorkload>(
                               exp.proc(n), exp.msg(n), exp.barrier(),
                               exp.numNodes(), cp, board, 1));
    Cycle budget = 2000000;
    exp.runUntilDone(budget);
    // The run ends long before the budget: peers are declared dead
    // and the no-progress grace period expires.
    EXPECT_FALSE(exp.allDone());
    EXPECT_LT(exp.kernel().now(), budget);
    EXPECT_GT(exp.totalDeadPeers(), 0);
    EXPECT_EQ(exp.packetsDelivered(), 0u);
}

//===------------------------------------------------------------===//
// FaultPlan parsing and validation
//===------------------------------------------------------------===//

TEST(FaultPlanParse, ParsesAllKeys)
{
    Config conf;
    conf.set("fault.dropProb", std::string("0.03"));
    conf.set("fault.corruptProb", std::string("0.01"));
    conf.set("fault.maxDrops", std::string("100"));
    conf.set("fault.seed", std::string("42"));
    conf.set("fault.linkDown", std::string("3@1000+500,7@2500"));
    conf.set("fault.portDown", std::string("2.1@100+50"));
    conf.set("fault.downLinks", std::string("2"));
    conf.set("fault.downFrom", std::string("5000"));
    conf.set("fault.downFor", std::string("800"));
    FaultPlan plan = FaultPlan::fromConfig(conf);
    EXPECT_DOUBLE_EQ(plan.dropProb, 0.03);
    EXPECT_DOUBLE_EQ(plan.corruptProb, 0.01);
    EXPECT_EQ(plan.maxDrops, 100);
    EXPECT_EQ(plan.seed, 42u);
    ASSERT_EQ(plan.linkDown.size(), 2u);
    EXPECT_EQ(plan.linkDown[0].link, 3);
    EXPECT_EQ(plan.linkDown[0].from, 1000u);
    EXPECT_EQ(plan.linkDown[0].until, 1500u);
    EXPECT_EQ(plan.linkDown[1].link, 7);
    EXPECT_EQ(plan.linkDown[1].until, 0u); // permanent
    ASSERT_EQ(plan.portDown.size(), 1u);
    EXPECT_EQ(plan.portDown[0].router, 2);
    EXPECT_EQ(plan.portDown[0].port, 1);
    EXPECT_EQ(plan.portDown[0].from, 100u);
    EXPECT_EQ(plan.portDown[0].until, 150u);
    EXPECT_EQ(plan.randomDownLinks, 2);
    EXPECT_EQ(plan.randomDownFrom, 5000u);
    EXPECT_EQ(plan.randomDownFor, 800u);
    EXPECT_TRUE(plan.active());
    EXPECT_FALSE(FaultPlan().active());
    EXPECT_NE(plan.toString().find("drop="), std::string::npos);
}

TEST(FaultPlanParse, RejectsMalformedSpecs)
{
    auto parse = [](const char *key, const char *value) {
        Config conf;
        conf.set(key, std::string(value));
        return FaultPlan::fromConfig(conf);
    };
    EXPECT_THROW(parse("fault.linkDown", "abc"), std::runtime_error);
    EXPECT_THROW(parse("fault.linkDown", "@100"), std::runtime_error);
    EXPECT_THROW(parse("fault.linkDown", "3@100+0"),
                 std::runtime_error);
    EXPECT_THROW(parse("fault.linkDown", "2.1@100"),
                 std::runtime_error);
    EXPECT_THROW(parse("fault.portDown", "5@100"), std::runtime_error);
    EXPECT_THROW(parse("fault.dropProb", "1.5"), std::runtime_error);
    EXPECT_THROW(parse("fault.corruptProb", "-0.1"),
                 std::runtime_error);
    EXPECT_THROW(parse("fault.maxDrops", "-2"), std::runtime_error);
    EXPECT_THROW(parse("fault.downLinks", "-1"), std::runtime_error);
}

TEST(FaultPlanParse, ValidateRejectsEmptyWindows)
{
    FaultPlan plan;
    plan.linkDown.push_back({0, 100, 100});
    EXPECT_THROW(plan.validate(), std::runtime_error);
    FaultPlan plan2;
    plan2.portDown.push_back({0, 0, 200, 100});
    EXPECT_THROW(plan2.validate(), std::runtime_error);
}

//===------------------------------------------------------------===//
// Experiment config/CLI plumbing
//===------------------------------------------------------------===//

TEST(FaultConfig, ExperimentFromConfigParsesEveryKnob)
{
    Config conf;
    conf.set("topology", std::string("torus2d"));
    conf.set("nodes", std::string("16"));
    conf.set("nic", std::string("lossy"));
    conf.set("seed", std::string("9"));
    conf.set("lossy.dropProb", std::string("0.02"));
    conf.set("lossy.retxTimeout", std::string("2500"));
    conf.set("lossy.backoffFactor", std::string("1.5"));
    conf.set("lossy.maxRetxTimeout", std::string("20000"));
    conf.set("lossy.jitterFrac", std::string("0.1"));
    conf.set("lossy.maxRetries", std::string("12"));
    conf.set("fault.dropProb", std::string("0.03"));
    ExperimentConfig cfg = experimentFromConfig(conf);
    EXPECT_EQ(cfg.topology, "torus2d");
    EXPECT_EQ(cfg.numNodes, 16);
    EXPECT_EQ(cfg.nicKind, NicKind::lossy);
    EXPECT_EQ(cfg.seed, 9u);
    EXPECT_DOUBLE_EQ(cfg.lossy.dropProb, 0.02);
    EXPECT_EQ(cfg.lossy.retxTimeout, 2500u);
    EXPECT_DOUBLE_EQ(cfg.lossy.backoffFactor, 1.5);
    EXPECT_EQ(cfg.lossy.maxRetxTimeout, 20000u);
    EXPECT_DOUBLE_EQ(cfg.lossy.jitterFrac, 0.1);
    EXPECT_EQ(cfg.lossy.maxRetries, 12);
    EXPECT_DOUBLE_EQ(cfg.fault.dropProb, 0.03);
}

TEST(FaultConfig, BadKnobsAreFatal)
{
    auto parse = [](const char *key, const char *value) {
        Config conf;
        conf.set(key, std::string(value));
        return experimentFromConfig(conf);
    };
    EXPECT_THROW(parse("nic", "bogus"), std::runtime_error);
    EXPECT_THROW(parse("lossy.dropProb", "1.5"), std::runtime_error);
    EXPECT_THROW(parse("lossy.backoffFactor", "0.5"),
                 std::runtime_error);
    EXPECT_THROW(parse("lossy.jitterFrac", "1.0"), std::runtime_error);
    EXPECT_THROW(parse("lossy.maxRetries", "-1"), std::runtime_error);
}

TEST(FaultConfig, ProbabilisticFaultsRequireLossyNic)
{
    // No other NIC recovers lost packets, so the harness refuses the
    // combination up front instead of hanging mid-run.
    ExperimentConfig cfg;
    cfg.topology = "mesh2d";
    cfg.numNodes = 16;
    cfg.nicKind = NicKind::nifdy;
    cfg.fault.dropProb = 0.05;
    EXPECT_THROW(Experiment exp(cfg), std::runtime_error);
    // Pure outage plans are fine on any NIC (nothing is lost).
    ExperimentConfig ok;
    ok.topology = "fattree";
    ok.numNodes = 16;
    ok.nicKind = NicKind::nifdy;
    ok.fault.randomDownLinks = 1;
    ok.fault.randomDownFrom = 1000;
    ok.fault.randomDownFor = 100;
    Experiment exp(ok);
    EXPECT_NE(exp.faults(), nullptr);
}

TEST(FaultConfig, DesignDocumentsEveryListedKnob)
{
    // Help and --list-knobs derive from the bindings, so every knob a
    // binary reads is listed; DESIGN.md must keep up with the list.
    std::ifstream in(std::string(NIFDY_TOOLS_DIR) + "/../DESIGN.md");
    ASSERT_TRUE(static_cast<bool>(in));
    std::ostringstream design;
    design << in.rdbuf();

    Config campaign;
    campaignFromConfig(campaign);
    std::istringstream lines(experimentKnobList() + campaign.knobList());
    int knobs = 0;
    for (std::string line; std::getline(lines, line); ++knobs) {
        std::string name = line.substr(0, line.find('\t'));
        EXPECT_NE(design.str().find("`" + name + "`"), std::string::npos)
            << name << " is missing from DESIGN.md";
    }
    EXPECT_GT(knobs, 60);
}

} // namespace
} // namespace nifdy
