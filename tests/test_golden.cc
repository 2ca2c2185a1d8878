/**
 * @file
 * Cross-version identity oracle (DESIGN.md section 10.3): one short
 * experiment per router mode, each with the latency anatomy and the
 * congestion observatory attached, must reproduce a recorded 64-bit
 * FNV-1a digest of its nifdy-report-1 JSON (profile section dropped).
 *
 * The determinism tests compare two runs of one build; this suite
 * compares a build with the commit that recorded the digests, so a
 * change that moves any result these reports record (a latency, a
 * link's stall cycles, a drop count) fails here. A change that
 * alters simulated behaviour on purpose re-records the constants (a
 * failure prints the new digest) and says so in CHANGES.md.
 */

#include <initializer_list>
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "campaign/engine.hh"
#include "harness/experiment.hh"
#include "sim/config.hh"
#include "sim/report.hh"
#include "traffic/collective.hh"
#include "traffic/cshift.hh"
#include "traffic/synthetic.hh"

namespace nifdy
{
namespace
{

/**
 * Run one experiment with the anatomy and congestion observers on:
 * @p args are run_experiment's key=value arguments, @p workload is
 * "heavy" (runFor @p cycles), "cshift" or "collective" (runUntilDone
 * @p cycles). Returns hex16 of fnv1a64 over the report's
 * json(false).
 */
std::string
goldenDigest(std::initializer_list<const char *> args,
             const std::string &workload, Cycle cycles)
{
    Config conf;
    conf.set("anatomy.enabled", true);
    conf.set("congestion.enabled", true);
    for (std::string kv : args) {
        std::size_t eq = kv.find('=');
        conf.set(kv.substr(0, eq), kv.substr(eq + 1));
    }
    ExperimentConfig cfg = experimentFromConfig(conf);
    Experiment exp(cfg);
    CShiftBoard board(exp.numNodes());
    const bool cshift = workload == "cshift";
    const bool collective = workload == "collective";
    for (NodeId n = 0; n < exp.numNodes(); ++n) {
        if (collective) {
            // run_experiment's collective workload: the software tree
            // takes the shape the NIC engines embed.
            CollectiveParams coll;
            coll.arity = cfg.coll.arity;
            exp.setWorkload(n, std::make_unique<CollectiveWorkload>(
                                   exp.proc(n), exp.msg(n),
                                   exp.barrier(), exp.numNodes(), coll,
                                   cfg.seed));
        } else if (cshift) {
            CShiftParams shift;
            shift.wordsPerPair = 40;
            exp.nic(n).setInjectBoard(&board.injected);
            exp.setWorkload(n, std::make_unique<CShiftWorkload>(
                                   exp.proc(n), exp.msg(n),
                                   exp.barrier(), exp.numNodes(), shift,
                                   board, cfg.seed));
        } else {
            exp.setWorkload(n, std::make_unique<SyntheticWorkload>(
                                   exp.proc(n), exp.msg(n),
                                   exp.barrier(), exp.numNodes(),
                                   SyntheticParams::heavy(), cfg.seed));
        }
    }
    if (cshift || collective)
        exp.runUntilDone(cycles);
    else
        exp.runFor(cycles);
    RunReport rep("test_golden");
    rep.echoConfig(conf);
    exp.fillReport(rep);
    return hex16(fnv1a64(rep.json(false)));
}

TEST(Golden, FatTree)
{
    EXPECT_EQ(goldenDigest({"topology=fattree", "nodes=64"}, "heavy", 4000),
              "dffb507c19c97e9e");
}

TEST(Golden, FatTreeStoreAndForward)
{
    EXPECT_EQ(goldenDigest({"topology=fattree-saf", "nodes=16"}, "heavy",
                           8000),
              "2d7d0879f2209530");
}

TEST(Golden, AdaptiveMesh)
{
    EXPECT_EQ(goldenDigest({"topology=mesh2d-adaptive", "nodes=16"},
                           "heavy", 8000),
              "4d79168bc2eadcc8");
}

TEST(Golden, Torus)
{
    EXPECT_EQ(goldenDigest({"topology=torus2d", "nodes=16"}, "heavy", 8000),
              "5cc19784ae431241");
}

TEST(Golden, Mesh3d)
{
    EXPECT_EQ(goldenDigest({"topology=mesh3d", "nodes=27"}, "heavy", 6000),
              "2e37babb83871de8");
}

TEST(Golden, Butterfly)
{
    EXPECT_EQ(goldenDigest({"topology=butterfly", "nodes=16"}, "heavy",
                           8000),
              "bf5d4c23ff6c72f2");
}

TEST(Golden, Multibutterfly)
{
    EXPECT_EQ(goldenDigest({"topology=multibutterfly", "nodes=16"},
                           "heavy", 8000),
              "6186cf8410542f8d");
}

TEST(Golden, Cm5CyclicShift)
{
    EXPECT_EQ(goldenDigest({"topology=cm5", "nodes=16"}, "cshift", 200000),
              "fb8b9eed51323a65");
}

TEST(Golden, LossyWithLinkAndPortFaults)
{
    EXPECT_EQ(goldenDigest({"topology=mesh2d-adaptive", "nodes=16",
                            "nic=lossy", "fault.dropProb=0.05",
                            "fault.linkDown=3@1000+3000,7@4000",
                            "fault.portDown=2.1@500+2500"},
                           "heavy", 10000),
              "01c2eac527e05c44");
}

TEST(Golden, LossyFatTreeDrops)
{
    // A lossy clone's hop can move the anatomy record it shares with
    // the original off routerArb, and the original's failed retries
    // stamp it back, so this pins routers that retry every blocked
    // head while the anatomy watches.
    EXPECT_EQ(goldenDigest({"topology=fattree", "nodes=16", "nic=lossy",
                            "fault.dropProb=0.05"},
                           "heavy", 10000),
              "bbc7b23bf8b7440a");
}

TEST(Golden, NoNic)
{
    EXPECT_EQ(goldenDigest({"topology=fattree", "nodes=16", "nic=none"},
                           "heavy", 8000),
              "887853d90cd943d5");
}

TEST(Golden, NodeCrashRestart)
{
    // Two crash/restart windows on NIFDY: deliveries that reach a
    // down node are black-holed, and the restarts tear down dialogs.
    EXPECT_EQ(goldenDigest({"topology=fattree", "nodes=16",
                            "node.crash=5@1500+1000,9@3000+500",
                            "seed=2"},
                           "heavy", 8000),
              "47a53b89c6ec5e41");
}

TEST(Golden, BuffersCrash)
{
    // The buffers NIC's arrival slots across two crash windows.
    EXPECT_EQ(goldenDigest({"topology=fattree", "nodes=16", "nic=buffers",
                            "node.crash=3@2000+500,7@2500+800",
                            "seed=1"},
                           "heavy", 6000),
              "08c8b893f6dfc2a3");
}

TEST(Golden, LossyReceiverDrops)
{
    // Receiver-side drops and the duplicate filter's repeated acks,
    // scalar and bulk, on a cyclic shift run to completion.
    EXPECT_EQ(goldenDigest({"topology=fattree", "nodes=16", "nic=lossy",
                            "lossy.dropProb=0.05", "seed=2"},
                           "cshift", 400000),
              "686192faf750676f");
}

TEST(Golden, LossyRetryCapDeadPeers)
{
    // Jittered, backed-off timers reach the retry cap, so peers are
    // declared dead and their queued traffic abandoned; a crashed
    // node that stays down is also reclaimed by the timeout.
    EXPECT_EQ(goldenDigest({"topology=fattree", "nodes=16", "nic=lossy",
                            "fault.dropProb=0.05",
                            "lossy.retxTimeout=600",
                            "lossy.backoffFactor=2",
                            "lossy.jitterFrac=0.25",
                            "lossy.maxRetries=3", "node.crash=5@1500",
                            "node.reclaimTimeout=5000"},
                           "heavy", 12000),
              "e1812795f9f6858a");
}

TEST(Golden, CollOffloadCrash)
{
    // NIC-resident collective engines with one node crash: the engine
    // retransmits, probes and prunes the dead subtree, and the
    // survivors finish degraded.
    EXPECT_EQ(goldenDigest({"topology=fattree", "nodes=16",
                            "coll.offload=nic", "node.crash=6@1000"},
                           "collective", 400000),
              "e72e1f745d6f9a4b");
}

} // namespace
} // namespace nifdy
