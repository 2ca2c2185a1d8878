/**
 * @file
 * The determinism contract, enforced end to end (DESIGN.md section
 * 10): the same config run twice in one process -- fresh kernels,
 * fresh pools, different heap layout the second time around -- must
 * produce byte-identical nifdy-report-1 JSON. That the warmed-up
 * hot loop does not allocate is the allocation gate's
 * (tests/allocgate.cc).
 *
 * CI's cross-process byte-identity step (release job) is the
 * complement: it runs the same config under different ASLR seeds
 * and heap layouts and diffs the report files. This fixture catches
 * the same class of bug (behavior keyed on pointer values, container
 * iteration order, or leftover global state) without leaving the
 * test binary.
 *
 * Experiments are also re-entrant: each one's observers hang off its
 * own kernel's probe bus, so two experiments stepped alternately, or
 * run on two threads, each report exactly what they report alone.
 *
 * Sleeping components are exact: a run whose NICs and processors are
 * woken before every cycle reports what the run that lets them sleep
 * does.
 */

#include <exception>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

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

/** One experiment from key=value pairs, heavy synthetic traffic on
 * every node. */
std::unique_ptr<Experiment>
build(const Config &conf)
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

/** @p exp's report; @p withProfile keeps the host-time section. */
std::string
report(const Config &conf, const Experiment &exp, bool withProfile)
{
    RunReport rep("test_determinism");
    rep.echoConfig(conf);
    exp.fillReport(rep);
    return rep.json(withProfile);
}

/** Build, run, and serialize one experiment from key=value pairs. */
std::string
runOnce(const Config &conf, Cycle cycles, bool withProfile = true)
{
    std::unique_ptr<Experiment> exp = build(conf);
    exp->runFor(cycles);
    return report(conf, *exp, withProfile);
}

Config
fig2StyleConfig()
{
    // The bench_fig2_heavy shape, shrunk to unit-test size: heavy
    // synthetic traffic through the best-parameter NIFDY unit.
    Config conf;
    conf.set("topology", std::string("fattree"));
    conf.set("nodes", 16L);
    conf.set("nic", std::string("nifdy"));
    conf.set("seed", 3L);
    return conf;
}

Config
faultyConfig()
{
    // 5% fabric drops through the lossy NIC with the full invariant
    // audit attached: the config whose stability the CI determinism
    // gate certifies across ASLR seeds.
    Config conf = fig2StyleConfig();
    conf.set("nic", std::string("nifdy-lossy"));
    conf.set("fault.dropProb", 0.05);
    conf.set("audit", true);
    return conf;
}

TEST(Determinism, Fig2StyleDoubleRunByteIdentical)
{
    const std::string first = runOnce(fig2StyleConfig(), 20000);
    const std::string second = runOnce(fig2StyleConfig(), 20000);
    EXPECT_EQ(first, second)
        << "identical configs produced different reports: behavior "
           "depends on heap layout, iteration order, or leftover "
           "global state";
}

TEST(Determinism, FaultInjectedAuditedDoubleRunByteIdentical)
{
    const std::string first = runOnce(faultyConfig(), 20000);
    const std::string second = runOnce(faultyConfig(), 20000);
    EXPECT_EQ(first, second);
}

TEST(Determinism, PartialNifdyOverrideKeepsTopologyDefaults)
{
    // nifdy.window=2 is the mesh's own Table-3 window, so giving it
    // must not pull the other nifdy.* knobs off the mesh's values.
    Config plain;
    plain.set("topology", std::string("mesh2d"));
    plain.set("nodes", 16L);
    Config given = plain;
    given.set("nifdy.window", 2L);
    auto run = [](const Config &conf) {
        std::unique_ptr<Experiment> exp = build(conf);
        exp->runFor(3000);
        RunReport rep("test_determinism");
        exp->fillReport(rep);
        return rep.json(false);
    };
    EXPECT_EQ(run(given), run(plain));
}

/** A 16-node mesh with every event-taking observer on: the audit,
 * the latency anatomy and the congestion observatory. */
Config
observedMeshConfig(long seed)
{
    Config conf;
    conf.set("topology", std::string("mesh2d"));
    conf.set("nodes", 16L);
    conf.set("seed", seed);
    conf.set("audit", true);
    conf.set("anatomy.enabled", true);
    conf.set("congestion.enabled", true);
    return conf;
}

TEST(Determinism, InterleavedExperimentsMatchSoloRuns)
{
    const Config confs[2] = {observedMeshConfig(1),
                             observedMeshConfig(2)};
    std::unique_ptr<Experiment> exps[2] = {build(confs[0]),
                                           build(confs[1])};
    for (int round = 0; round < 2; ++round)
        for (auto &exp : exps)
            exp->runFor(5000);
    for (int i = 0; i < 2; ++i)
        EXPECT_EQ(report(confs[i], *exps[i], false),
                  runOnce(confs[i], 10000, false))
            << "experiment " << i << " saw the other's events";
}

TEST(Determinism, ExperimentsOnTwoThreadsMatchSoloRuns)
{
    Config confs[2] = {observedMeshConfig(1), observedMeshConfig(2)};
    std::string solo[2];
    for (int i = 0; i < 2; ++i) {
        confs[i].set("profile.enabled", true);
        solo[i] = runOnce(confs[i], 10000, false);
    }
    std::string threaded[2];
    auto run = [&](int i) {
        // An exception escaping a worker thread would terminate the
        // process: report it as the (mismatching) result instead.
        try {
            threaded[i] = runOnce(confs[i], 10000, false);
        } catch (const std::exception &e) {
            threaded[i] = e.what();
        }
    };
    {
        std::jthread first(run, 0);
        std::jthread second(run, 1);
    }
    for (int i = 0; i < 2; ++i)
        EXPECT_EQ(threaded[i], solo[i]) << "experiment " << i;
}

/** One experiment's report and the steps its kernel ran. */
struct SteppedRun
{
    std::string report;
    std::uint64_t steps = 0;
};

/**
 * Run @p conf's experiment for @p cycles cycles, one kernel step at a
 * time, with @p workload ("heavy", "cshift" or "collective") on every
 * node. @p awake wakes every NIC and processor before each step, so
 * none of them sleeps.
 */
SteppedRun
runStepped(const Config &conf, const std::string &workload, Cycle cycles,
           bool awake)
{
    ExperimentConfig cfg = experimentFromConfig(conf);
    Experiment exp(cfg);
    CShiftBoard board(exp.numNodes());
    for (NodeId n = 0; n < exp.numNodes(); ++n) {
        std::unique_ptr<Workload> w;
        if (workload == "cshift") {
            CShiftParams shift;
            shift.wordsPerPair = 40;
            exp.nic(n).setInjectBoard(&board.injected);
            w = std::make_unique<CShiftWorkload>(
                exp.proc(n), exp.msg(n), exp.barrier(), exp.numNodes(),
                shift, board, cfg.seed);
        } else if (workload == "collective") {
            CollectiveParams coll;
            coll.arity = cfg.coll.arity;
            coll.dataMsgs = 1;
            w = std::make_unique<CollectiveWorkload>(
                exp.proc(n), exp.msg(n), exp.barrier(), exp.numNodes(),
                coll, cfg.seed);
        } else {
            w = std::make_unique<SyntheticWorkload>(
                exp.proc(n), exp.msg(n), exp.barrier(), exp.numNodes(),
                SyntheticParams::heavy(), cfg.seed);
        }
        exp.setWorkload(n, std::move(w));
    }
    for (Cycle c = 0; c < cycles; ++c) {
        if (awake) {
            for (NodeId n = 0; n < exp.numNodes(); ++n) {
                exp.nic(n).wakeNow();
                exp.proc(n).wakeNow();
            }
        }
        exp.kernel().step();
    }
    return {report(conf, exp, false), exp.kernel().steps()};
}

TEST(Determinism, SleepingMatchesAlwaysAwake)
{
    struct Case
    {
        const char *name;
        std::vector<std::pair<const char *, const char *>> args;
        const char *workload;
        Cycle cycles;
    };
    const Case cases[] = {
        {"fattree heavy",
         {{"topology", "fattree"}, {"nodes", "64"}},
         "heavy",
         6000},
        {"lossy, 5% fabric drops",
         {{"topology", "fattree"},
          {"nodes", "16"},
          {"nic", "lossy"},
          {"fault.dropProb", "0.05"}},
         "heavy",
         20000},
        {"cm5 cyclic shift",
         {{"topology", "cm5"}, {"nodes", "16"}},
         "cshift",
         40000},
        {"crash and restart, reclaim",
         {{"topology", "fattree"},
          {"nodes", "16"},
          {"node.crash", "5@1500+1000,9@3000+500"},
          {"node.reclaimTimeout", "4000"}},
         "heavy",
         12000},
        {"crash and restart, lossy, no reclaim",
         {{"topology", "fattree"},
          {"nodes", "16"},
          {"nic", "lossy"},
          {"node.crash", "5@1500+1000,9@3000+500"},
          {"node.reclaimTimeout", "0"}},
         "heavy",
         12000},
        {"collective offload with a crash",
         {{"topology", "fattree"},
          {"nodes", "16"},
          {"coll.offload", "nic"},
          {"node.crash", "6@1000"}},
         "collective",
         30000},
    };
    for (const Case &c : cases) {
        Config conf;
        for (const auto &[key, value] : c.args)
            conf.set(key, std::string(value));
        const SteppedRun slept = runStepped(conf, c.workload, c.cycles,
                                            false);
        const SteppedRun awake = runStepped(conf, c.workload, c.cycles,
                                            true);
        EXPECT_EQ(slept.report, awake.report) << c.name;
        EXPECT_LT(slept.steps, awake.steps)
            << c.name << ": nothing slept";
    }
}

TEST(Determinism, ReportsCarryTheStableSchema)
{
    const std::string json = runOnce(fig2StyleConfig(), 2000);
    EXPECT_NE(json.find("\"schema\":\"nifdy-report-1\""),
              std::string::npos);
}

} // namespace
} // namespace nifdy
