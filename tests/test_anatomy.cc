/**
 * @file
 * Latency-anatomy tests: the conservation invariant (per-cause
 * cycles sum to end-to-end latency exactly), attribution under
 * faults and chaos, sampling, and determinism. Non-perturbation is
 * the observer contract's (tests/test_probes.cc).
 */

#include <gtest/gtest.h>

#include <memory>

#include "harness/experiment.hh"
#include "sim/anatomy.hh"
#include "traffic/synthetic.hh"

namespace nifdy
{
namespace
{

ExperimentConfig
anatomyCfg(NicKind kind, std::uint64_t seed = 1)
{
    ExperimentConfig cfg;
    cfg.topology = "mesh2d";
    cfg.numNodes = 16;
    cfg.nicKind = kind;
    cfg.msg.packetWords = 8;
    cfg.seed = seed;
    cfg.audit = true;
    cfg.anatomy.enabled = true;
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

/** Every cycle accounted for: per-cause totals tile the end-to-end
 * latency sum exactly (the tentpole invariant, checked mid-run by
 * the audit layer and here once more on the final aggregates). */
void
expectConservation(const Anatomy &an)
{
    EXPECT_GT(an.packets(), 0u);
    EXPECT_EQ(an.totalAttributed(), an.totalLatency());
    std::uint64_t byCause = 0;
    for (int c = 0; c < numStallCauses; ++c)
        byCause += an.totalCycles(static_cast<StallCause>(c));
    EXPECT_EQ(byCause, an.totalLatency());
    // Per-node totals tile the same sum a second way.
    std::uint64_t byNode = 0;
    std::uint64_t nodeLat = 0;
    for (NodeId n = 0; n < NodeId(an.numNodes()); ++n) {
        for (std::uint64_t v : an.nodeTotals(n))
            byNode += v;
        nodeLat += an.nodeLatency(n);
    }
    EXPECT_EQ(byNode, an.totalLatency());
    EXPECT_EQ(nodeLat, an.totalLatency());
    // And the e2e distribution agrees with the running sum.
    EXPECT_EQ(an.e2e().sum(), an.totalLatency());
    EXPECT_EQ(an.e2e().count(), an.packets());
}

TEST(Anatomy, ConservationHoldsOnNifdy)
{
    auto exp = runHeavy(anatomyCfg(NicKind::nifdy));
    ASSERT_NE(exp->anatomy(), nullptr);
    expectConservation(*exp->anatomy());
    // NIFDY's protocol stalls are visible: some latency lands on
    // ack wait or OPT occupancy, and nothing on retransmissions.
    const Anatomy &an = *exp->anatomy();
    EXPECT_GT(an.totalCycles(StallCause::ackWait) +
                  an.totalCycles(StallCause::optSlot) +
                  an.totalCycles(StallCause::optCap),
              0u);
    EXPECT_EQ(an.totalCycles(StallCause::retxBackoff), 0u);
    EXPECT_EQ(an.totalCycles(StallCause::epochRecovery), 0u);
}

TEST(Anatomy, ConservationHoldsOnPlainNic)
{
    auto exp = runHeavy(anatomyCfg(NicKind::none));
    ASSERT_NE(exp->anatomy(), nullptr);
    expectConservation(*exp->anatomy());
    // The plain NIC has no protocol: its queueing is all injection
    // backpressure, never NIFDY causes.
    const Anatomy &an = *exp->anatomy();
    EXPECT_EQ(an.totalCycles(StallCause::ackWait), 0u);
    EXPECT_EQ(an.totalCycles(StallCause::optSlot), 0u);
    EXPECT_EQ(an.totalCycles(StallCause::optCap), 0u);
    EXPECT_EQ(an.totalCycles(StallCause::windowClosed), 0u);
    EXPECT_GT(an.totalCycles(StallCause::injectStall), 0u);
}

TEST(Anatomy, ConservationHoldsUnderFivePercentFaultRate)
{
    ExperimentConfig cfg = anatomyCfg(NicKind::lossy, 3);
    cfg.fault.dropProb = 0.05;
    cfg.lossy.retxTimeout = 1200;
    cfg.lossy.backoffFactor = 2.0;
    cfg.lossy.maxRetxTimeout = 9600;
    auto exp = runHeavy(cfg, 40000);
    ASSERT_NE(exp->anatomy(), nullptr);
    const Anatomy &an = *exp->anatomy();
    expectConservation(an);
    // A 5% in-fabric drop rate makes recovery visible in the blame:
    // delivered packets that were dropped at least once spent time
    // in retransmission backoff.
    EXPECT_GT(an.totalCycles(StallCause::retxBackoff), 0u);
    // Packets still in flight when the window closes are unfinished
    // lifecycles; finish() (idempotent, also run by the harness
    // teardown) discards them rather than sampling partial books.
    EXPECT_GT(an.openRecords(), 0u);
    exp->anatomy()->finish(exp->kernel().now());
    EXPECT_GT(an.discarded(), 0u);
    EXPECT_EQ(an.openRecords(), 0u);
}

TEST(Anatomy, ChaosSoakConservesAndDiscardsCrashVictims)
{
    ExperimentConfig cfg = anatomyCfg(NicKind::lossy, 2);
    cfg.fault.dropProb = 0.02;
    cfg.lossy.retxTimeout = 1200;
    cfg.lossy.backoffFactor = 2.0;
    cfg.lossy.maxRetxTimeout = 9600;
    cfg.lossy.jitterFrac = 0.25;
    cfg.lossy.maxRetries = 8;
    NodeFault permanent;
    permanent.node = 2;
    permanent.crashAt = 15000;
    cfg.nodeFault.crashes.push_back(permanent);
    NodeFault bouncer;
    bouncer.node = 5;
    bouncer.crashAt = 20000;
    bouncer.restartAt = 26000;
    cfg.nodeFault.crashes.push_back(bouncer);
    cfg.nodeReclaim = 12000;
    auto exp = runHeavy(cfg, 60000);
    ASSERT_NE(exp->anatomy(), nullptr);
    const Anatomy &an = *exp->anatomy();
    // The audit's conservation checker ran every cycle of the soak;
    // re-check the final books and that the crash victims' pending
    // lifecycles were discarded rather than mis-attributed.
    expectConservation(an);
    EXPECT_GT(exp->nodeCrashes(), 0u);
    std::uint64_t open = an.openRecords();
    exp->anatomy()->finish(exp->kernel().now());
    EXPECT_GT(an.discarded(), 0u)
        << "open=" << open << " sent=" << exp->packetsSent()
        << " delivered=" << exp->packetsDelivered()
        << " attributed=" << an.packets();
}

TEST(Anatomy, SeededRunsAreDeterministic)
{
    auto a = runHeavy(anatomyCfg(NicKind::nifdy, 9));
    auto b = runHeavy(anatomyCfg(NicKind::nifdy, 9));
    ASSERT_NE(a->anatomy(), nullptr);
    ASSERT_NE(b->anatomy(), nullptr);
    EXPECT_EQ(a->anatomy()->packets(), b->anatomy()->packets());
    EXPECT_EQ(a->anatomy()->totalLatency(),
              b->anatomy()->totalLatency());
    for (int c = 0; c < numStallCauses; ++c)
        EXPECT_EQ(a->anatomy()->totalCycles(
                      static_cast<StallCause>(c)),
                  b->anatomy()->totalCycles(static_cast<StallCause>(c)))
            << stallCauseSlugs[c];
}

TEST(Anatomy, SampleRateAttributesASubset)
{
    auto full = runHeavy(anatomyCfg(NicKind::nifdy));
    ExperimentConfig cfg = anatomyCfg(NicKind::nifdy);
    cfg.anatomy.sampleRate = 0.25;
    auto some = runHeavy(cfg);
    ASSERT_NE(full->anatomy(), nullptr);
    ASSERT_NE(some->anatomy(), nullptr);
    // Same traffic either way (sampling only thins the bookkeeping).
    EXPECT_EQ(full->packetsDelivered(), some->packetsDelivered());
    EXPECT_GT(some->anatomy()->packets(), 0u);
    EXPECT_LT(some->anatomy()->packets(), full->anatomy()->packets());
    expectConservation(*some->anatomy());
}

} // namespace
} // namespace nifdy
