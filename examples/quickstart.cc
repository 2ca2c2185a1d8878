/**
 * @file
 * Quickstart: build a 64-node fat tree with NIFDY network
 * interfaces, run the heavy synthetic workload for a while, and
 * print throughput and latency statistics.
 *
 * Usage: quickstart [topology=fattree] [nic=nifdy|none|buffers|lossy]
 *                   [cycles=200000] [nodes=64] [seed=1]
 * plus every other experiment knob (see --help).
 */

#include <cstdio>

#include "harness/experiment.hh"
#include "sim/config.hh"
#include "sim/table.hh"
#include "traffic/synthetic.hh"

using namespace nifdy;

int
main(int argc, char **argv)
{
    Config conf;
    conf.parseArgs(argc, argv);
    ExperimentConfig cfg = experimentFromConfig(conf);
    Cycle cycles = 200000;
    conf.knob("cycles", cycles, "cycles to run");
    conf.close();

    Experiment exp(cfg);
    for (NodeId n = 0; n < exp.numNodes(); ++n)
        exp.setWorkload(n, std::make_unique<SyntheticWorkload>(
                               exp.proc(n), exp.msg(n), exp.barrier(),
                               exp.numNodes(), SyntheticParams::heavy(),
                               cfg.seed));
    exp.runFor(cycles);

    exp.statsTable().print();
    return 0;
}
