/**
 * @file
 * Generic experiment runner: every knob of the key=value config
 * layer (topology, NIC kind, NIFDY parameters, lossy NIC, fault
 * injection, tracing, metric snapshots) plus a workload selector,
 * with the run summary printed as a table and optionally written as
 * a schema-versioned JSON report.
 *
 * Usage: run_experiment [key=value ...] [--json PATH]
 *   workload=KIND   heavy (default), light, cshift, collective,
 *                   idle
 *   cycles=N        cycle budget (default 200000); cshift stops
 *                   early when the pattern completes
 *   timeout=N       hard cycle guard (0 = off): cap the budget at N
 *                   cycles and note run.timeout in the report when
 *                   the workload did not finish -- the self-guard a
 *                   campaign supervisor sets so a wedged config
 *                   reports itself instead of hanging
 *   words=N         cshift payload words per pair (default 120)
 *   csv=true        emit the summary table as CSV too
 *   --help          print the full key reference (or help=true)
 *   --list-knobs    print every config knob as name, default, doc
 *                   (tab-separated, one per line) and exit
 * Any other key or flag is fatal, with the nearest known key named.
 *
 * This is also the binary CI uses to exercise the telemetry stack:
 *   run_experiment workload=cshift nic=lossy fault.dropProb=0.001 \
 *       trace.path=trace.json metrics.path=metrics.jsonl
 */

#include <cstdio>

#include "harness/experiment.hh"
#include "sim/config.hh"
#include "sim/log.hh"
#include "sim/report.hh"
#include "traffic/collective.hh"
#include "traffic/cshift.hh"
#include "traffic/synthetic.hh"

using namespace nifdy;

int
main(int argc, char **argv)
{
    Config conf;
    conf.parseArgs(argc, argv);
    std::string jsonPath;
    conf.flag("--json", jsonPath, "write the JSON run report here");
    ExperimentConfig cfg = experimentFromConfig(conf);
    std::string workload = "heavy";
    conf.knob("workload", workload,
              "workload kind: heavy, light, cshift, collective, idle");
    Cycle cycles = 200000;
    conf.knob("cycles", cycles, "cycle budget");
    Cycle timeout = 0;
    conf.knob("timeout", timeout,
              "hard cycle guard; note run.timeout when the workload did "
              "not finish (0 = off)");
    CShiftParams shift;
    conf.knob("words", shift.wordsPerPair,
              "cshift payload words per pair", 1);
    CollectiveParams coll;
    conf.knob("phases", coll.phases,
              "collective phases (barrier/bcast/reduce rotation)", 1);
    conf.knob("collData", coll.dataMsgs,
              "data messages per collective phase per node");
    bool csv = false;
    conf.knob("csv", csv, "emit the summary table as CSV too");
    conf.close();

    // The guard caps the budget; a workload that needed more cycles
    // shows up as run.timeout=1 in the report instead of running
    // (or hanging) unbounded under a campaign supervisor.
    Cycle budget = cycles;
    if (timeout > 0 && timeout < budget)
        budget = timeout;

    Experiment exp(cfg);
    CShiftBoard board(exp.numNodes());
    if (workload == "heavy" || workload == "light") {
        SyntheticParams sp = workload == "heavy"
                                 ? SyntheticParams::heavy()
                                 : SyntheticParams::light();
        for (NodeId n = 0; n < exp.numNodes(); ++n)
            exp.setWorkload(n, std::make_unique<SyntheticWorkload>(
                                   exp.proc(n), exp.msg(n),
                                   exp.barrier(), exp.numNodes(), sp,
                                   cfg.seed));
    } else if (workload == "cshift") {
        for (NodeId n = 0; n < exp.numNodes(); ++n) {
            exp.nic(n).setInjectBoard(&board.injected);
            exp.setWorkload(n, std::make_unique<CShiftWorkload>(
                                   exp.proc(n), exp.msg(n),
                                   exp.barrier(), exp.numNodes(), shift,
                                   board, cfg.seed));
        }
    } else if (workload == "collective") {
        // Software mode runs the same tree shape the NIC engines
        // would, so offload vs software compares like for like.
        coll.arity = cfg.coll.arity;
        for (NodeId n = 0; n < exp.numNodes(); ++n)
            exp.setWorkload(n, std::make_unique<CollectiveWorkload>(
                                   exp.proc(n), exp.msg(n),
                                   exp.barrier(), exp.numNodes(), coll,
                                   cfg.seed));
    } else if (workload != "idle") {
        fatal("unknown workload '%s' (want heavy, light, cshift, "
              "collective, or idle)",
              workload.c_str());
    }

    Cycle ran;
    if (workload == "cshift" || workload == "collective")
        ran = exp.runUntilDone(budget);
    else
        ran = exp.runFor(budget);

    RunReport rep("run_experiment");
    rep.echoConfig(conf);
    rep.echoConfig("workload", workload);
    exp.fillReport(rep);
    bool hitGuard = timeout > 0 && budget < cycles && !exp.allDone();
    if (hitGuard) {
        rep.addMetric("run.timeout", std::uint64_t(1));
        rep.addNote("TIMEOUT: workload '" + workload +
                    "' did not finish within the timeout=" +
                    std::to_string(timeout) + " cycle guard (ran " +
                    std::to_string(ran) + " of a " +
                    std::to_string(cycles) + "-cycle budget)");
    }
    rep.print(csv);
    if (!jsonPath.empty())
        rep.writeJson(jsonPath);
    return 0;
}
