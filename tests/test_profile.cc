/**
 * @file
 * Host-cost profiler contract (DESIGN.md section 12):
 *
 *  - conservation: per-component host-ns plus the in-loop phase
 *    accounts telescope to the measured loop time *exactly* (the
 *    anatomy-style tiling invariant, here over host nanoseconds);
 *  - the idle-work account is exact on quiescent fabrics (idle
 *    fraction 1.0 with no workload; a drained tail after a finished
 *    workload accrues only idle steps);
 *  - with profiling ON, the deterministic counter sections are
 *    byte-identical across a double run (json(false) strips only
 *    the quarantined host-time section).
 *
 * That profile-off reports carry no profile content, and that
 * profiling does not perturb the run, is the observer contract's
 * (tests/test_probes.cc).
 */

#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "harness/experiment.hh"
#include "sim/audit.hh"
#include "sim/config.hh"
#include "sim/profile.hh"
#include "sim/report.hh"
#include "traffic/cshift.hh"
#include "traffic/synthetic.hh"

namespace nifdy
{
namespace
{

Config
fig2StyleConfig()
{
    Config conf;
    conf.set("topology", std::string("fattree"));
    conf.set("nodes", 16L);
    conf.set("nic", std::string("nifdy"));
    conf.set("seed", 3L);
    return conf;
}

std::unique_ptr<Experiment>
makeHeavyExperiment(const Config &conf)
{
    ExperimentConfig cfg = experimentFromConfig(conf);
    auto exp = std::make_unique<Experiment>(cfg);
    SyntheticParams sp = SyntheticParams::heavy();
    for (NodeId n = 0; n < exp->numNodes(); ++n)
        exp->setWorkload(n, std::make_unique<SyntheticWorkload>(
                                exp->proc(n), exp->msg(n),
                                exp->barrier(), exp->numNodes(), sp,
                                cfg.seed));
    return exp;
}

std::size_t
classIndex(const Profiler &p, const std::string &name)
{
    const auto &classes = p.classes();
    for (std::size_t c = 0; c < classes.size(); ++c)
        if (classes[c] == name)
            return c;
    ADD_FAILURE() << "profiler never saw component class " << name;
    return 0;
}

/**
 * The conservation invariant: every timed cycle is tiled by the
 * chained clock, so component-ns + probes-ns + self-ns equals the
 * measured loop total with zero residue. interval=1 makes every
 * cycle timed, maximizing the opportunity to drift. The probes
 * segment closes only when an observer works at the end of the
 * cycle, here the congestion observatory; otherwise it stays empty.
 */
TEST(Profile, HostNsConservesExactly)
{
    for (bool congestion : {false, true}) {
        SCOPED_TRACE(congestion ? "congestion on" : "congestion off");
        Config conf = fig2StyleConfig();
        conf.set("profile.enabled", true);
        conf.set("profile.interval", 1L);
        conf.set("congestion.enabled", congestion);
        auto exp = makeHeavyExperiment(conf);
        exp->runFor(3000);

        const Profiler &p = *exp->profiler();
        ASSERT_NE(&p, nullptr);
        EXPECT_EQ(p.cycles(), 3000u);
        EXPECT_EQ(p.timedCycles(), 3000u);
        EXPECT_GT(p.loopNs(), 0u);
        // NIFDY_AUDIT=1 attaches the audit, which also works there.
        EXPECT_EQ(p.phaseNs(ProfPhase::probes) > 0,
                  exp->kernel().probes().watchesCycles());
        EXPECT_EQ(exp->kernel().probes().watchesCycles(),
                  congestion || Audit::envEnabled());

        std::uint64_t sum = 0;
        for (std::size_t c = 0; c < p.classes().size(); ++c)
            sum += p.classNs(c);
        sum += p.phaseNs(ProfPhase::probes);
        sum += p.phaseNs(ProfPhase::self);
        EXPECT_EQ(sum, p.loopNs())
            << "per-component + per-phase host time must tile the "
               "measured loop time exactly (trace emit is outside the "
               "loop and excluded)";
    }
}

/** Sampling bookkeeping: interval=k times every k-th cycle only,
 * while the deterministic counters still cover every cycle. */
TEST(Profile, IntervalGatesTimedCyclesOnly)
{
    Config conf = fig2StyleConfig();
    conf.set("profile.enabled", true);
    conf.set("profile.interval", 32L);
    auto exp = makeHeavyExperiment(conf);
    exp->runFor(3200);

    const Profiler &p = *exp->profiler();
    EXPECT_EQ(p.cycles(), 3200u);
    EXPECT_EQ(p.timedCycles(), 100u); // cycles 0, 32, ..., 3168
    // Routers never sleep: each one stepped every one of the 3200
    // cycles.
    std::size_t router = classIndex(p, "router");
    EXPECT_EQ(p.classSteps(router),
              static_cast<std::uint64_t>(exp->network().numRouters()) *
                  3200u);
    // The per-class accounts cover exactly the steps the kernel ran,
    // timed or not; sleeping NICs and processors ran fewer.
    std::uint64_t steps = 0;
    for (std::size_t c = 0; c < p.classes().size(); ++c)
        steps += p.classSteps(c);
    EXPECT_EQ(steps, exp->kernel().steps());
    EXPECT_LT(p.classSteps(classIndex(p, "nifdy-nic")), 16u * 3200u);
}

/** A fabric with no workload makes no progress anywhere: every
 * class's idle fraction is exactly 1. */
TEST(Profile, IdleFractionIsOneOnQuiescentFabric)
{
    Config conf = fig2StyleConfig();
    conf.set("profile.enabled", true);
    ExperimentConfig cfg = experimentFromConfig(conf);
    Experiment exp(cfg); // no workloads installed
    exp.runFor(2000);

    const Profiler &p = *exp.profiler();
    ASSERT_GT(p.classes().size(), 0u);
    for (std::size_t c = 0; c < p.classes().size(); ++c) {
        EXPECT_GT(p.classSteps(c), 0u) << p.classes()[c];
        EXPECT_EQ(p.classIdleSteps(c), p.classSteps(c))
            << "class " << p.classes()[c]
            << " reported progress on a quiescent fabric";
    }
}

/**
 * Half-quiescent run: heavy traffic to completion, then a drained
 * tail. The tail must accrue *only* idle steps -- the exact signal
 * the idle-skipping optimization will key on -- while the traffic
 * period must show real non-idle work per class. A drained NIC has
 * nothing that could wake it, so it sleeps through the whole tail.
 */
TEST(Profile, DrainedTailAccruesOnlyIdleSteps)
{
    Config conf = fig2StyleConfig();
    conf.set("profile.enabled", true);
    ExperimentConfig cfg = experimentFromConfig(conf);
    Experiment exp(cfg);
    // A finite workload (the synthetic generators run forever).
    CShiftParams cp;
    cp.wordsPerPair = 24;
    CShiftBoard board(exp.numNodes());
    for (NodeId n = 0; n < exp.numNodes(); ++n)
        exp.setWorkload(n, std::make_unique<CShiftWorkload>(
                               exp.proc(n), exp.msg(n), exp.barrier(),
                               exp.numNodes(), cp, board, cfg.seed));
    exp.runUntilDone(3000000);
    ASSERT_TRUE(exp.allDone());
    // Let in-flight acks/credits drain fully.
    exp.runFor(5000);
    ASSERT_TRUE(exp.drained());

    const Profiler &p = *exp.profiler();
    std::vector<std::uint64_t> steps0, idle0;
    for (std::size_t c = 0; c < p.classes().size(); ++c) {
        steps0.push_back(p.classSteps(c));
        idle0.push_back(p.classIdleSteps(c));
        // The traffic period did real work in every class.
        EXPECT_LT(p.classIdleSteps(c), p.classSteps(c))
            << p.classes()[c];
    }

    const Cycle tail = 1000;
    exp.runFor(tail);
    for (std::size_t c = 0; c < p.classes().size(); ++c) {
        std::uint64_t dSteps = p.classSteps(c) - steps0[c];
        std::uint64_t dIdle = p.classIdleSteps(c) - idle0[c];
        if (p.classes()[c] == "nifdy-nic")
            EXPECT_EQ(dSteps, 0u) << "a drained NIC was stepped";
        else
            EXPECT_GT(dSteps, 0u) << p.classes()[c];
        EXPECT_EQ(dIdle, dSteps)
            << "drained-tail steps of class " << p.classes()[c]
            << " must all be idle";
    }
}

/**
 * With profiling ON, everything outside the quarantined section is
 * still deterministic: a double run produces byte-identical
 * json(false) documents, and the full document carries the
 * nondeterminism marker.
 */
TEST(Profile, DeterministicSectionsByteIdenticalAcrossDoubleRun)
{
    auto runOnce = [](bool stripProfile) {
        Config conf = fig2StyleConfig();
        conf.set("profile.enabled", true);
        auto exp = makeHeavyExperiment(conf);
        exp->runFor(10000);
        RunReport rep("test_profile");
        rep.echoConfig(conf);
        exp->fillReport(rep);
        return rep.json(!stripProfile);
    };
    const std::string first = runOnce(true);
    const std::string second = runOnce(true);
    EXPECT_EQ(first, second)
        << "deterministic report sections changed across a "
           "profile-on double run";

    const std::string full = runOnce(false);
    EXPECT_NE(full.find("\"profile\""), std::string::npos);
    EXPECT_NE(full.find("\"nondeterministic\":true"),
              std::string::npos);
    // The deterministic counters are in the metrics section and
    // survive the strip.
    EXPECT_NE(first.find("\"profile.cycles\""), std::string::npos);
}

} // namespace
} // namespace nifdy
