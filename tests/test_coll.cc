/**
 * @file
 * NIC-resident collective subsystem (src/coll): tree math, offload
 * barrier/bcast/reduce value correctness, the crash-mid-collective
 * soak grid (every run terminates with no wedge and no leaked
 * collective state), seeded determinism of degraded outcomes, the
 * restarted-forwarder rejoin path, and the software-barrier crash
 * regression (excuse discipline). The allocation gate over the
 * offloaded steady state is in tests/allocgate.cc.
 */

#include <array>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "coll/coll.hh"
#include "harness/experiment.hh"
#include "sim/audit.hh"
#include "sim/report.hh"
#include "traffic/collective.hh"
#include "traffic/synthetic.hh"

namespace nifdy
{
namespace
{

//===------------------------------------------------------------===//
// Tree math
//===------------------------------------------------------------===//

TEST(CollTree, KAryEmbedding)
{
    EXPECT_EQ(collParent(0, 4), invalidNode);
    EXPECT_EQ(collParent(1, 4), 0);
    EXPECT_EQ(collParent(4, 4), 0);
    EXPECT_EQ(collParent(5, 4), 1);
    EXPECT_EQ(collFirstChild(0, 4), 1);
    EXPECT_EQ(collFirstChild(1, 4), 5);
    EXPECT_EQ(collNumChildren(0, 4, 16), 4);
    EXPECT_EQ(collNumChildren(1, 4, 16), 4);
    EXPECT_EQ(collNumChildren(3, 4, 16), 3); // 13, 14, 15
    EXPECT_EQ(collNumChildren(4, 4, 16), 0);
    EXPECT_EQ(collTreeDepth(1, 4), 1);
    EXPECT_EQ(collTreeDepth(16, 4), 3);
    EXPECT_EQ(collTreeDepth(256, 4), 5);
    // Arity 1 degenerates to a chain rooted at 0.
    EXPECT_EQ(collParent(3, 1), 2);
    EXPECT_EQ(collNumChildren(3, 1, 8), 1);
    EXPECT_EQ(collTreeDepth(8, 1), 8);
}

TEST(CollConfigTest, Defaults)
{
    CollConfig cfg;
    cfg.validate();
    EXPECT_FALSE(cfg.offload);
    EXPECT_EQ(cfg.effMaxTimeout(), 16 * cfg.timeout);
    cfg.maxTimeout = 5000;
    EXPECT_EQ(cfg.effMaxTimeout(), 5000u);
    EXPECT_GT(cfg.worstCaseRecovery(64), 0u);
    // Recovery budgets grow with tree depth.
    EXPECT_GT(cfg.worstCaseRecovery(256), cfg.worstCaseRecovery(16));
}

//===------------------------------------------------------------===//
// Helpers
//===------------------------------------------------------------===//

/** Fast-recovery collective knobs so crash soaks stay short. */
CollConfig
tightColl()
{
    CollConfig c;
    c.offload = true;
    c.timeout = 300;
    c.backoffFactor = 2.0;
    c.maxTimeout = 2400;
    c.jitterFrac = 0.25;
    c.maxRetries = 4;
    c.probeTimeout = 600;
    c.maxProbes = 3;
    return c;
}

ExperimentConfig
collCfg(const std::string &topo, int nodes, bool offload)
{
    ExperimentConfig cfg;
    cfg.topology = topo;
    cfg.numNodes = nodes;
    cfg.nicKind = NicKind::nifdy;
    cfg.audit = true;
    cfg.seed = 7;
    if (offload)
        cfg.coll = tightColl();
    return cfg;
}

void
installCollective(Experiment &exp, const CollectiveParams &cp,
                  std::uint64_t seed)
{
    for (NodeId n = 0; n < exp.numNodes(); ++n)
        exp.setWorkload(n, std::make_unique<CollectiveWorkload>(
                               exp.proc(n), exp.msg(n), exp.barrier(),
                               exp.numNodes(), cp, seed));
}

std::string
reportJson(Experiment &exp, const std::string &tag)
{
    RunReport rep("test_coll");
    exp.fillReport(rep);
    std::string path = ::testing::TempDir() + "nifdy_coll_" + tag +
                       ".json";
    rep.writeJson(path);
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << path;
    std::ostringstream ss;
    ss << in.rdbuf();
    std::remove(path.c_str());
    return ss.str();
}

/** Every live engine resolved everything and holds no state. */
void
expectCollectiveStateClean(Experiment &exp)
{
    for (NodeId n = 0; n < exp.numNodes(); ++n) {
        CollEngine *eng = exp.collEngine(n);
        ASSERT_NE(eng, nullptr);
        EXPECT_EQ(eng->openCollectives(), 0)
            << "node " << n << " leaked open collective slots";
        EXPECT_EQ(eng->entered(),
                  eng->localCompleted() + eng->localAbandoned())
            << "node " << n << " has an unresolved local collective";
        EXPECT_FALSE(eng->localPending()) << "node " << n;
        if (!exp.nic(n).crashed()) {
            EXPECT_TRUE(eng->idle()) << "node " << n;
        }
    }
}

//===------------------------------------------------------------===//
// Offload correctness, no faults
//===------------------------------------------------------------===//

TEST(CollOffload, BarrierBcastReduceValues)
{
    ExperimentConfig cfg = collCfg("fattree", 16, true);
    Experiment exp(cfg);
    CollectiveParams cp;
    cp.phases = 6; // two full barrier/bcast/reduce rotations
    installCollective(exp, cp, cfg.seed);

    Cycle ran = exp.runUntilDone(2000000);
    ASSERT_TRUE(exp.allDone()) << "ran " << ran;

    // The last resolved phase (5) is a reduce: everyone must hold
    // the full sum, and nothing was degraded on a healthy machine.
    std::int64_t expected = 0;
    for (NodeId n = 0; n < exp.numNodes(); ++n)
        expected += static_cast<std::int64_t>(n + 1) * 1000 + 5;
    for (NodeId n = 0; n < exp.numNodes(); ++n) {
        CollEngine *eng = exp.collEngine(n);
        ASSERT_NE(eng, nullptr);
        EXPECT_EQ(eng->lastResult(), expected) << "node " << n;
        EXPECT_FALSE(eng->lastDegraded()) << "node " << n;
        EXPECT_EQ(eng->localCompleted(), 6u) << "node " << n;
        EXPECT_EQ(eng->degradedCompletions(), 0u) << "node " << n;
    }

    // Released results were identical everywhere, phase by phase.
    auto *w0 = dynamic_cast<CollectiveWorkload *>(exp.workload(0));
    ASSERT_NE(w0, nullptr);
    for (NodeId n = 1; n < exp.numNodes(); ++n) {
        auto *w = dynamic_cast<CollectiveWorkload *>(exp.workload(n));
        ASSERT_NE(w, nullptr);
        EXPECT_EQ(w->checksum(), w0->checksum()) << "node " << n;
        EXPECT_EQ(w->degradedSeen(), 0u) << "node " << n;
    }

    exp.runFor(20000); // drain
    expectCollectiveStateClean(exp);
    EXPECT_TRUE(exp.drained());
    exp.audit()->finish();
}

TEST(CollOffload, BcastReleasesTheRootsValue)
{
    ExperimentConfig cfg = collCfg("torus2d", 16, true);
    Experiment exp(cfg);
    CollectiveParams cp;
    cp.phases = 2; // barrier, then one bcast
    installCollective(exp, cp, cfg.seed);
    ASSERT_TRUE(exp.runUntilDone(2000000) > 0 && exp.allDone());

    auto *w0 = dynamic_cast<CollectiveWorkload *>(exp.workload(0));
    ASSERT_NE(w0, nullptr);
    const std::int64_t rootValue = w0->valueFor(1);
    for (NodeId n = 0; n < exp.numNodes(); ++n)
        EXPECT_EQ(exp.collEngine(n)->lastResult(), rootValue)
            << "node " << n;
    exp.audit()->finish();
}

TEST(CollOffload, OffModeHasNoCollectiveState)
{
    ExperimentConfig cfg = collCfg("fattree", 16, false);
    Experiment exp(cfg);
    EXPECT_FALSE(exp.barrier().offloaded());
    EXPECT_EQ(exp.collEngine(0), nullptr);

    CollectiveParams cp;
    cp.phases = 3;
    installCollective(exp, cp, cfg.seed);
    ASSERT_TRUE(exp.runUntilDone(2000000) > 0 && exp.allDone());

    // The report must not grow coll.* keys when the feature is off:
    // off-mode runs stay byte-identical to pre-collective builds.
    EXPECT_EQ(reportJson(exp, "offmode").find("coll."),
              std::string::npos);
    exp.audit()->finish();
}

TEST(CollOffload, SoftwareAndOffloadCompleteTheSamePhases)
{
    for (bool offload : {false, true}) {
        SCOPED_TRACE(offload ? "offload" : "software");
        ExperimentConfig cfg = collCfg("fattree", 16, offload);
        Experiment exp(cfg);
        CollectiveParams cp;
        cp.phases = 6;
        installCollective(exp, cp, cfg.seed);
        ASSERT_TRUE(exp.runUntilDone(2000000) > 0 && exp.allDone());
        for (NodeId n = 0; n < exp.numNodes(); ++n) {
            auto *w =
                dynamic_cast<CollectiveWorkload *>(exp.workload(n));
            ASSERT_NE(w, nullptr);
            EXPECT_EQ(w->collectivesDone(), 6u) << "node " << n;
        }
        exp.audit()->finish();
    }
}

//===------------------------------------------------------------===//
// Crash-mid-collective soak grid
//===------------------------------------------------------------===//

struct CrashSchedule
{
    const char *name;
    std::vector<NodeFault> faults;
    int dataMsgs = 0;
};

std::vector<CrashSchedule>
crashSchedules()
{
    // Node ids stay < 8 so the mesh3d (8-node) grid point works;
    // crash times land inside the ~3k-cycle fault-free runtime.
    NodeFault permanent;
    permanent.node = 2;
    permanent.crashAt = 2000;
    NodeFault restart;
    restart.node = 1; // interior node: children must re-parent
    restart.crashAt = 2000;
    restart.restartAt = 3500;
    NodeFault second;
    second.node = 5;
    second.crashAt = 2600;
    second.restartAt = 4200;
    CrashSchedule a{"permanent", {permanent}, 0};
    CrashSchedule b{"interior-restart", {restart}, 0};
    CrashSchedule c{"double-with-data", {permanent, second}, 1};
    return {a, b, c};
}

TEST(CollCrashSoak, EveryRunTerminatesWithNoLeakedState)
{
    const std::array<std::pair<const char *, int>, 3> topos{
        {{"fattree", 16}, {"torus2d", 16}, {"mesh3d", 8}}};
    for (const auto &topo : topos) {
        for (const CrashSchedule &sched : crashSchedules()) {
            SCOPED_TRACE(std::string(topo.first) + "/" + sched.name);
            ExperimentConfig cfg =
                collCfg(topo.first, topo.second, true);
            cfg.nodeFault.crashes = sched.faults;
            cfg.nodeReclaim = 20000;
            Experiment exp(cfg);
            CollectiveParams cp;
            cp.phases = 12; // rotation: barrier, bcast, reduce x4
            cp.dataMsgs = sched.dataMsgs;
            installCollective(exp, cp, cfg.seed);

            const Cycle budget = 4000000;
            Cycle ran = exp.runUntilDone(budget);

            // No wedge: the survivors finished every phase well
            // inside the budget, degraded rather than hanging.
            ASSERT_TRUE(exp.allDone())
                << "collective soak wedged after " << ran
                << " cycles";
            EXPECT_LT(ran, budget);
            EXPECT_GT(exp.nodeCrashes(), 0u);
            for (NodeId n = 0; n < exp.numNodes(); ++n) {
                if (exp.nodeCrashedEver(n))
                    continue;
                auto *w = dynamic_cast<CollectiveWorkload *>(
                    exp.workload(n));
                ASSERT_NE(w, nullptr);
                EXPECT_EQ(w->collectivesDone(), 12u)
                    << "node " << n;
            }

            exp.runFor(60000); // drain in-flight recovery traffic
            expectCollectiveStateClean(exp);
            exp.audit()->finish();
        }
    }
}

TEST(CollCrashSoak, DegradedAccountingIsDeterministic)
{
    std::array<std::string, 2> dumps;
    for (int run = 0; run < 2; ++run) {
        ExperimentConfig cfg = collCfg("fattree", 16, true);
        NodeFault f;
        f.node = 2;
        f.crashAt = 2000;
        cfg.nodeFault.crashes.push_back(f);
        cfg.nodeReclaim = 20000;
        Experiment exp(cfg);
        CollectiveParams cp;
        cp.phases = 12;
        installCollective(exp, cp, cfg.seed);
        ASSERT_TRUE(exp.runUntilDone(4000000) > 0 && exp.allDone());
        exp.runFor(60000);
        dumps[static_cast<std::size_t>(run)] =
            reportJson(exp, "det" + std::to_string(run));
    }
    EXPECT_FALSE(dumps[0].empty());
    EXPECT_EQ(dumps[0], dumps[1]);
    // The degraded outcome is part of the deterministic surface.
    EXPECT_NE(dumps[0].find("coll.degraded"), std::string::npos);
    EXPECT_NE(dumps[0].find("coll.retx"), std::string::npos);
}

//===------------------------------------------------------------===//
// Restarted node rejoins as a forwarder
//===------------------------------------------------------------===//

TEST(CollEpoch, RestartedInteriorNodeForwardsForItsSubtree)
{
    // Node 1 owns children 5..8 in the 16-node arity-4 tree. It
    // crashes mid-collective and restarts; afterwards its engine
    // must keep combining/forwarding for the subtree -- excused from
    // contributing, never blocking -- so the children complete every
    // remaining phase without re-parenting forever.
    ExperimentConfig cfg = collCfg("fattree", 16, true);
    NodeFault f;
    f.node = 1;
    f.crashAt = 1500;
    f.restartAt = 3000;
    cfg.nodeFault.crashes.push_back(f);
    cfg.nodeReclaim = 20000;
    Experiment exp(cfg);
    CollectiveParams cp;
    cp.phases = 15;
    installCollective(exp, cp, cfg.seed);

    ASSERT_TRUE(exp.runUntilDone(4000000) > 0 && exp.allDone());
    CollEngine *eng = exp.collEngine(1);
    ASSERT_NE(eng, nullptr);
    EXPECT_TRUE(eng->excusedNode());
    EXPECT_GT(eng->localAbandoned() + eng->localCompleted(), 0u);
    for (NodeId n = 5; n <= 8; ++n) {
        auto *w = dynamic_cast<CollectiveWorkload *>(exp.workload(n));
        ASSERT_NE(w, nullptr);
        EXPECT_EQ(w->collectivesDone(), 15u) << "child " << n;
    }
    exp.runFor(60000);
    expectCollectiveStateClean(exp);
    exp.audit()->finish();
}

//===------------------------------------------------------------===//
// Software-barrier crash regression (PR 4 excuse discipline)
//===------------------------------------------------------------===//

/** Per-flow delivered tuples (as in test_chaos.cc, trimmed). */
struct DeliveryLog
{
    using Tuple = std::array<long, 3>;
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

TEST(SoftwareBarrierCrash, SurvivorsAreExcusedAndKeepPhasing)
{
    // The free-runner regression: a node dies while its peers wait
    // in a *software* barrier. The excuse discipline must virtually
    // arrive it -- this and every later generation -- so survivors
    // keep phasing; live pairs stay byte-identical to a fault-free
    // run of the same seed.
    auto run = [](bool crash, DeliveryLog &log,
                  std::unique_ptr<Experiment> &out) {
        ExperimentConfig cfg;
        cfg.topology = "fattree";
        cfg.numNodes = 16;
        cfg.nicKind = NicKind::lossy;
        cfg.msg.packetWords = 6;
        cfg.audit = true;
        cfg.seed = 5;
        cfg.lossy.retxTimeout = 1200;
        cfg.lossy.backoffFactor = 2.0;
        cfg.lossy.maxRetxTimeout = 9600;
        cfg.lossy.maxRetries = 8;
        if (crash) {
            NodeFault f;
            f.node = 3;
            f.crashAt = 30000; // mid-run, never restarts
            cfg.nodeFault.crashes.push_back(f);
            cfg.nodeReclaim = 15000;
        }
        out = std::make_unique<Experiment>(cfg);
        Experiment &exp = *out;
        exp.audit()->add(std::make_unique<DeliveryRecorder>(&log));
        for (NodeId n = 0; n < exp.numNodes(); ++n)
            exp.setWorkload(n, std::make_unique<SyntheticWorkload>(
                                   exp.proc(n), exp.msg(n),
                                   exp.barrier(), exp.numNodes(),
                                   SyntheticParams::heavy(), 1));
        exp.runFor(120000);
    };

    DeliveryLog baseLog;
    std::unique_ptr<Experiment> base;
    run(false, baseLog, base);

    DeliveryLog crashLog;
    std::unique_ptr<Experiment> crashed;
    run(true, crashLog, crashed);

    ASSERT_TRUE(crashed->nic(3).crashed());
    EXPECT_TRUE(crashed->barrier().excused(3));
    EXPECT_TRUE(crashed->barrier().released(3, 120000));

    // Survivors kept making barrier progress after the crash: the
    // software backend's generation counter is a direct witness.
    EXPECT_GT(crashed->barrier().generation(), 3);

    // Live-pair byte-identity: every message fully delivered in both
    // runs between never-crashed, never-written-off pairs matches.
    std::size_t compared = 0;
    for (const auto &kv : crashLog.flows) {
        NodeId receiver = kv.first.first;
        NodeId sender = kv.first.second;
        if (receiver == 3 || sender == 3)
            continue;
        auto *nn =
            dynamic_cast<NifdyNic *>(&crashed->nic(receiver));
        if (nn && nn->isPeerDead(sender))
            continue;
        auto it = baseLog.flows.find(kv.first);
        if (it == baseLog.flows.end())
            continue;
        auto group = [](const std::vector<DeliveryLog::Tuple> &v) {
            std::map<long, std::vector<DeliveryLog::Tuple>> m;
            for (const auto &t : v)
                m[t[0]].push_back(t);
            return m;
        };
        auto bm = group(it->second);
        for (auto &msg : group(kv.second)) {
            auto bit = bm.find(msg.first);
            if (bit == bm.end() ||
                bit->second.size() != msg.second.size())
                continue; // cut off mid-message in one run
            ++compared;
            ASSERT_EQ(bit->second, msg.second)
                << "flow " << sender << " -> " << receiver
                << " message " << msg.first;
        }
    }
    EXPECT_GT(compared, 0u);
}

} // namespace
} // namespace nifdy
