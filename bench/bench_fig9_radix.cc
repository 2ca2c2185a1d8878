/**
 * @file
 * Figure 9 and the Section 4.5 coalesce result: radix sort.
 *
 * Scan phase: pipelined scan-add, one single-packet message per
 * bucket to the next processor, on the three fat-tree variants,
 * with and without artificial inter-send delays, with and without
 * NIFDY.
 *
 * Paper shape: delays help everyone but matter much less with
 * NIFDY (its acks pace the sender automatically); the higher the
 * network latency (store-and-forward worst), the bigger NIFDY's
 * gain. Coalesce: virtually identical with and without NIFDY.
 *
 * Args: nodes=64 buckets=256 delay=60 keys=256 seed=1 csv=false
 */

#include "benchutil.hh"
#include "traffic/radixsort.hh"

using namespace nifdy;

namespace
{

Cycle
runScan(const std::string &topo, NicKind kind, int nodes, int buckets,
        int delay, std::uint64_t seed)
{
    ExperimentConfig cfg;
    cfg.topology = topo;
    cfg.numNodes = nodes;
    cfg.nicKind = kind;
    cfg.seed = seed;
    cfg.msg.packetWords = 6;
    Experiment exp(cfg);
    RadixParams rp;
    rp.buckets = buckets;
    rp.delay = delay;
    for (NodeId n = 0; n < nodes; ++n)
        exp.setWorkload(n, std::make_unique<RadixScanWorkload>(
                               exp.proc(n), exp.msg(n), nodes, rp,
                               seed));
    exp.runUntilDone(60000000);
    if (!exp.allDone())
        return 0;
    return exp.kernel().now();
}

Cycle
runCoalesce(const std::string &topo, NicKind kind, int nodes, int keys,
            std::uint64_t seed)
{
    ExperimentConfig cfg;
    cfg.topology = topo;
    cfg.numNodes = nodes;
    cfg.nicKind = kind;
    cfg.seed = seed;
    cfg.msg.packetWords = 6;
    Experiment exp(cfg);
    RadixParams rp;
    rp.keysPerProc = keys;
    auto plan =
        RadixCoalesceWorkload::makePlan(nodes, keys, seed);
    std::vector<int> expected(nodes, 0);
    for (auto &dests : plan)
        for (NodeId d : dests)
            ++expected[d];
    for (NodeId n = 0; n < nodes; ++n)
        exp.setWorkload(n, std::make_unique<RadixCoalesceWorkload>(
                               exp.proc(n), exp.msg(n), plan[n],
                               expected[n], rp, seed));
    exp.runUntilDone(60000000);
    if (!exp.allDone())
        return 0;
    return exp.kernel().now();
}

std::string
fmtCycles(Cycle c)
{
    return c == 0 ? "did not finish"
                  : Table::num(static_cast<long>(c));
}

} // namespace

int
main(int argc, char **argv)
{
    setQuiet(true);
    BenchArgs args(argc, argv, 0);
    int buckets = 256;
    args.conf.knob("buckets", buckets, "scan-phase buckets per node", 1);
    int delay = 60;
    args.conf.knob("delay", delay,
                   "idle cycles between sends in the delayed scan");
    int keys = 256;
    args.conf.knob("keys", keys, "coalesce-phase keys per node", 1);
    args.conf.close();

    const std::vector<std::string> trees{"fattree", "cm5",
                                         "fattree-saf"};

    Table t("Figure 9: radix-sort scan phase cycles (" +
            std::to_string(buckets) + " buckets, " +
            std::to_string(args.nodes) + " processors)");
    t.header({"network", "no delay, none", "no delay, nifdy",
              "delay, none", "delay, nifdy"});
    for (const auto &topo : trees) {
        t.row({topo,
               fmtCycles(runScan(topo, NicKind::none, args.nodes,
                                 buckets, 0, args.seed)),
               fmtCycles(runScan(topo, NicKind::nifdy, args.nodes,
                                 buckets, 0, args.seed)),
               fmtCycles(runScan(topo, NicKind::none, args.nodes,
                                 buckets, delay, args.seed)),
               fmtCycles(runScan(topo, NicKind::nifdy, args.nodes,
                                 buckets, delay, args.seed))});
    }
    args.emit(t);

    Table c("Section 4.5: radix-sort coalesce phase cycles (" +
            std::to_string(keys) + " keys per processor)");
    c.header({"network", "none", "nifdy", "nifdy/none"});
    for (const auto &topo : trees) {
        Cycle none = runCoalesce(topo, NicKind::none, args.nodes, keys,
                                 args.seed);
        Cycle nif = runCoalesce(topo, NicKind::nifdy, args.nodes, keys,
                                args.seed);
        c.row({topo, fmtCycles(none), fmtCycles(nif),
               none && nif ? Table::num(double(nif) / none, 2) : "-"});
    }
    args.emit(c);
    args.note("coalesce is expected to be nearly identical with and"
              " without NIFDY.");
    return args.finish();
}
