/**
 * @file
 * Example: running an irregular application (EM3D) over the NIFDY
 * library -- graph construction, per-iteration ghost exchange, and
 * a comparison of the NIC configurations on the same graph.
 *
 * Usage: em3d_app [topology=fattree] [nodes=64] [iters=3]
 *                 [preset=light|heavy] [seed=1]
 */

#include <cstdio>

#include "sim/log.hh"
#include "harness/experiment.hh"
#include "sim/config.hh"
#include "sim/table.hh"
#include "traffic/em3d.hh"

using namespace nifdy;

namespace
{

double
run(const std::string &topo, NicKind kind, const Em3dGraph &graph,
    int iters, std::uint64_t seed)
{
    ExperimentConfig cfg;
    cfg.topology = topo;
    cfg.numNodes = graph.numNodes();
    cfg.nicKind = kind;
    cfg.seed = seed;
    cfg.msg.packetWords = 6;
    Experiment exp(cfg);
    for (NodeId n = 0; n < exp.numNodes(); ++n)
        exp.setWorkload(n, std::make_unique<Em3dWorkload>(
                               exp.proc(n), exp.msg(n), exp.barrier(),
                               graph, seed));
    auto minIters = [&] {
        int m = 1 << 30;
        for (NodeId n = 0; n < exp.numNodes(); ++n)
            m = std::min(m, dynamic_cast<Em3dWorkload *>(
                                exp.workload(n))
                                ->iterations());
        return m;
    };
    exp.kernel().run(60000000, [&] { return minIters() >= iters; });
    return double(exp.kernel().now()) / std::max(1, minIters());
}

} // namespace

int
main(int argc, char **argv)
{
    setQuiet(true);
    Config conf;
    conf.parseArgs(argc, argv);
    std::string topo = "fattree";
    conf.knob("topology", topo, "network topology");
    int nodes = 64;
    conf.knob("nodes", nodes, "number of processors", 2);
    int iters = 3;
    conf.knob("iters", iters, "EM3D iterations per NIC kind", 1);
    std::uint64_t seed = 1;
    conf.knob("seed", seed, "graph and experiment RNG seed");
    bool heavy = false;
    conf.choice("preset", heavy, {{"light", false}, {"heavy", true}},
                "communication preset");
    conf.close();

    Em3dParams params = heavy ? Em3dParams::heavy() : Em3dParams::light();
    Em3dGraph graph(nodes, params, seed);
    std::printf("EM3D graph: %d processors, %ld remote words per"
                " iteration (%s preset)\n",
                nodes, graph.totalRemoteWords(),
                heavy ? "heavy" : "light");

    Table t("EM3D on " + topo + ": cycles per iteration");
    t.header({"nic", "cycles/iter", "speedup vs none"});
    double none = run(topo, NicKind::none, graph, iters, seed);
    t.row({"none", Table::num(none, 0), "1.00"});
    double buffers = run(topo, NicKind::buffers, graph, iters, seed);
    t.row({"buffers", Table::num(buffers, 0),
           Table::num(none / buffers, 2)});
    double nifdy = run(topo, NicKind::nifdy, graph, iters, seed);
    t.row({"nifdy", Table::num(nifdy, 0),
           Table::num(none / nifdy, 2)});
    t.print();
    return 0;
}
