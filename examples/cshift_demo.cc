/**
 * @file
 * Demo: the cyclic-shift all-to-all pathology and how NIFDY's
 * admission control dissipates it. Runs the pattern with the NIC of
 * your choice and prints a live per-receiver congestion strip plus
 * final statistics.
 *
 * Usage: cshift_demo [nic=nifdy|none|buffers|lossy] [nodes=64]
 *                    [topology=cm5] [words=120] [barriers=false]
 * plus every other experiment knob (see --help).
 */

#include <cstdio>

#include "sim/log.hh"
#include "harness/experiment.hh"
#include "sim/config.hh"
#include "sim/table.hh"
#include "traffic/cshift.hh"

using namespace nifdy;

int
main(int argc, char **argv)
{
    setQuiet(true);
    Config conf;
    conf.parseArgs(argc, argv);
    ExperimentConfig base;
    base.topology = "cm5";
    base.msg.packetWords = 6;
    ExperimentConfig cfg = experimentFromConfig(conf, base);
    CShiftParams cp;
    conf.knob("words", cp.wordsPerPair, "payload words per pair", 1);
    conf.knob("barriers", cp.barriers, "barrier between shift steps");
    conf.close();
    Experiment exp(cfg);

    CShiftBoard board(exp.numNodes());
    for (NodeId n = 0; n < exp.numNodes(); ++n) {
        exp.nic(n).setInjectBoard(&board.injected);
        exp.setWorkload(n, std::make_unique<CShiftWorkload>(
                               exp.proc(n), exp.msg(n), exp.barrier(),
                               exp.numNodes(), cp, board, cfg.seed));
    }

    std::printf("C-shift on %s with nic=%s: one line per 20k cycles,"
                " one char per receiver\n",
                exp.network().name().c_str(),
                nicKindName(cfg.nicKind));
    const char shades[] = " .:-=+*#%@";
    int worst = 0;
    while (!exp.allDone() && exp.kernel().now() < 20000000) {
        exp.runFor(20000);
        std::string strip;
        for (NodeId r = 0; r < exp.numNodes(); ++r) {
            int pend = board.pendingFor(r);
            worst = std::max(worst, pend);
            strip.push_back(shades[std::min(9, pend * 9 / 20)]);
        }
        std::printf("%8lu |%s|\n",
                    static_cast<unsigned long>(exp.kernel().now()),
                    strip.c_str());
    }

    Table t("result");
    t.header({"metric", "value"});
    t.row({"completed", exp.allDone() ? "yes" : "no"});
    t.row({"cycles",
           Table::num(static_cast<long>(exp.kernel().now()))});
    t.row({"packets delivered",
           Table::num(static_cast<long>(exp.packetsDelivered()))});
    t.row({"payload words/kcycle",
           Table::num(exp.wordsDelivered() * 1000.0 /
                          exp.kernel().now(),
                      1)});
    t.row({"worst receiver backlog", Table::num(long(worst))});
    t.print();
    return 0;
}
