/**
 * @file
 * Figure 5: network congestion during the cyclic-shift pattern
 * without barriers -- pending packets per receiver over time, shown
 * as an ASCII density map (white '.' = none, '@' = 20 or more),
 * without and with NIFDY.
 *
 * Paper shape: without NIFDY, dark streaks build up outside certain
 * receivers (two senders colliding on one receiver) and persist;
 * with NIFDY the perturbations dissipate and the pattern finishes
 * earlier.
 *
 * The pending-packet map is recorded as one TimeSeries per NIC
 * kind; the ASCII rendering and the `--json` report are both derived
 * from that series.
 *
 * The paper uses a 32-node CM-5 network; our generalized fat tree
 * is built in powers of four, so the default here is the 64-node
 * CM-5-style network (see EXPERIMENTS.md).
 *
 * Args: nodes=64 words=120 interval=10000 seed=1
 */

#include "benchutil.hh"
#include "sim/stats.hh"
#include "traffic/cshift.hh"

using namespace nifdy;

namespace
{

struct MapResult
{
    TimeSeries series;
    Cycle completion = 0;
    int worst = 0;
};

MapResult
runMap(NicKind kind, const std::string &seriesName, int nodes,
       int words, Cycle interval, std::uint64_t seed)
{
    ExperimentConfig cfg;
    cfg.topology = "cm5";
    cfg.numNodes = nodes;
    cfg.nicKind = kind;
    cfg.seed = seed;
    cfg.msg.packetWords = 6;
    Experiment exp(cfg);
    CShiftParams cp;
    cp.wordsPerPair = words;
    CShiftBoard board(nodes);
    for (NodeId n = 0; n < nodes; ++n) {
        exp.nic(n).setInjectBoard(&board.injected);
        exp.setWorkload(n, std::make_unique<CShiftWorkload>(
                               exp.proc(n), exp.msg(n), exp.barrier(),
                               nodes, cp, board, seed));
    }
    MapResult res{TimeSeries(seriesName, nodes, interval)};
    Cycle budget = 30000000;
    while (budget > 0 && !exp.allDone()) {
        exp.runFor(interval);
        budget -= interval;
        std::vector<std::uint32_t> row;
        row.reserve(static_cast<std::size_t>(nodes));
        for (NodeId r = 0; r < nodes; ++r) {
            int pend = board.pendingFor(r);
            res.worst = std::max(res.worst, pend);
            row.push_back(static_cast<std::uint32_t>(pend));
        }
        res.series.record(exp.kernel().now(), std::move(row));
    }
    res.completion = exp.kernel().now();
    return res;
}

void
printMap(const char *title, const MapResult &r, Cycle interval)
{
    const char shades[] = " .:-=+*#%@";
    std::printf("== %s ==\n", title);
    std::printf("rows: time (one per %lu cycles), cols: receiver;"
                " ' '=0 pending, '@'=20+\n",
                static_cast<unsigned long>(interval));
    for (std::size_t i = 0; i < r.series.rows(); ++i) {
        std::string line;
        for (std::uint32_t pend : r.series.row(i))
            line.push_back(
                shades[std::min(9u, pend * 9u / 20u)]);
        std::printf("|%s|\n", line.c_str());
    }
    std::printf("completion: %lu cycles, worst backlog: %d packets\n\n",
                static_cast<unsigned long>(r.completion), r.worst);
}

} // namespace

int
main(int argc, char **argv)
{
    setQuiet(true);
    BenchArgs args(argc, argv, 0);
    int words = 120;
    args.conf.knob("words", words, "cshift payload words per pair", 1);
    Cycle interval = 10000;
    args.conf.knob("interval", interval,
                   "cycles between pending-packet samples", 1);
    args.conf.close();

    MapResult none = runMap(NicKind::none, "cshift.pending.none",
                            args.nodes, words, interval, args.seed);
    MapResult nifdy = runMap(NicKind::nifdy, "cshift.pending.nifdy",
                             args.nodes, words, interval, args.seed);

    printMap("Figure 5a: C-shift pending packets per receiver, no "
             "NIFDY, no barriers",
             none, interval);
    printMap("Figure 5b: same pattern with NIFDY (one dialog,"
             " no barriers)",
             nifdy, interval);

    Table t("Figure 5 summary: C-shift completion without barriers");
    t.header({"nic", "completion cycles", "worst backlog"});
    t.row({"none", Table::num(static_cast<long>(none.completion)),
           Table::num(static_cast<long>(none.worst))});
    t.row({"nifdy", Table::num(static_cast<long>(nifdy.completion)),
           Table::num(static_cast<long>(nifdy.worst))});
    args.emit(t);
    std::printf("speedup from NIFDY: %.2fx; worst backlog %d -> %d\n",
                double(none.completion) / double(nifdy.completion),
                none.worst, nifdy.worst);
    args.report.addSeries(none.series);
    args.report.addSeries(nifdy.series);
    return args.finish();
}
