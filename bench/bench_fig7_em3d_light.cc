/**
 * @file
 * Figure 7: EM3D cycles per iteration with little communication
 * (n_nodes=200, d_nodes=10, local_p=80, dist_span=5), for every
 * network, comparing none / buffers / NIFDY- (flow control only) /
 * NIFDY (exploits in-order delivery).
 *
 * Paper shape: without the in-order credit, NIFDY- is close to the
 * buffers-only configuration; once the library exploits in-order
 * delivery NIFDY wins on every network (about 10% under this light
 * load). For networks that deliver in order by themselves (mesh,
 * butterfly) the in-order library is used for all columns.
 *
 * Args: nodes=64 iters=3 seed=1 csv=false
 */

#include "benchutil.hh"
#include "traffic/em3d.hh"

using namespace nifdy;

namespace
{

double
cyclesPerIteration(const std::string &topo, NicKind kind,
                   bool exploitInOrder, const Em3dGraph &graph,
                   int iters, std::uint64_t seed)
{
    ExperimentConfig cfg;
    cfg.topology = topo;
    cfg.numNodes = graph.numNodes();
    cfg.nicKind = kind;
    cfg.seed = seed;
    cfg.exploitInOrder = exploitInOrder;
    cfg.msg.packetWords = 6;
    Experiment exp(cfg);
    for (NodeId n = 0; n < exp.numNodes(); ++n)
        exp.setWorkload(n, std::make_unique<Em3dWorkload>(
                               exp.proc(n), exp.msg(n), exp.barrier(),
                               graph, seed));
    auto itersDone = [&] {
        int minIters = 1 << 30;
        for (NodeId n = 0; n < exp.numNodes(); ++n) {
            auto *w = dynamic_cast<Em3dWorkload *>(exp.workload(n));
            minIters = std::min(minIters, w->iterations());
        }
        return minIters;
    };
    exp.kernel().run(60000000,
                     [&] { return itersDone() >= iters; });
    return double(exp.kernel().now()) / std::max(1, itersDone());
}

} // namespace

int
runEm3dFigure(int argc, char **argv, const Em3dParams &params,
              const char *title)
{
    setQuiet(true);
    BenchArgs args(argc, argv, 0);
    int iters = 3;
    args.conf.knob("iters", iters, "EM3D iterations per run", 1);
    args.conf.close();

    Table t(title);
    t.header({"network", "none", "buffers", "nifdy-", "nifdy",
              "nifdy/none"});
    for (const std::string &topo : paperTopologies()) {
        Em3dGraph graph(args.nodes, params, args.seed);
        bool netInOrder = topologyInOrder(topo);
        double none = cyclesPerIteration(topo, NicKind::none, true,
                                         graph, iters, args.seed);
        double buffers = cyclesPerIteration(
            topo, NicKind::buffers, true, graph, iters, args.seed);
        double minus = cyclesPerIteration(topo, NicKind::nifdy, false,
                                          graph, iters, args.seed);
        double full = cyclesPerIteration(topo, NicKind::nifdy, true,
                                         graph, iters, args.seed);
        t.row({topo, Table::num(none, 0), Table::num(buffers, 0),
               netInOrder ? Table::num(full, 0) + "*"
                          : Table::num(minus, 0),
               Table::num(full, 0), Table::num(none / full, 2)});
    }
    args.emit(t);
    args.note("cycles per iteration (lower is better); '*' = the\n"
              "network delivers in order itself, so the in-order\n"
              "library is used for every column (paper Section 4.4).");
    return args.finish();
}

#ifndef NIFDY_EM3D_NO_MAIN
int
main(int argc, char **argv)
{
    return runEm3dFigure(argc, argv, Em3dParams::light(),
                         "Figure 7: EM3D cycles/iteration, "
                         "light communication (n=200 d=10 local=80% "
                         "span=5)");
}
#endif
