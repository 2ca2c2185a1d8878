/**
 * @file
 * Figure 2: packets delivered in a fixed window under the "heavy"
 * synthetic traffic pattern, for every network, comparing no NIFDY,
 * buffering only, and NIFDY with the per-network best parameters.
 *
 * Paper shape: NIFDY >= buffers-only >= none on every network, with
 * the biggest relative gains on low-bisection networks (meshes,
 * CM-5 fat tree).
 *
 * Args: cycles=150000 nodes=64 seed=1 csv=false
 * (the paper measures 1,000,000 cycles; pass cycles=1000000 to
 * match; the relative shape is stable from ~100k cycles on).
 *
 * `--anatomy` (or anatomy.enabled=true) additionally attributes
 * every sampled packet's latency to stall causes and emits one
 * blame table per topology/NIC pair plus "anatomy.<topo>.<nic>.*"
 * report metrics; feed the `--json` report through
 * `tools/analyze.py latency` for the blame breakdown, the
 * NIFDY-vs-plain delta, and the conservation check.
 *
 * `--congestion` (or congestion.enabled=true) likewise records one
 * per-link stall map plus "congestion.<topo>.<nic>.*" report
 * metrics per pair; feed the `--json` report through
 * `tools/analyze.py congestion` for the hotspot heatmap and its
 * conservation check.
 */

#include "benchutil.hh"

using namespace nifdy;

int
main(int argc, char **argv)
{
    setQuiet(true);
    BenchArgs args(argc, argv, 150000);
    args.bindTelemetry();
    args.conf.close();

    Table t("Figure 2: heavy synthetic traffic, packets delivered in " +
            std::to_string(args.cycles) + " cycles");
    t.header({"network", "none", "buffers", "nifdy", "nifdy/none",
              "nifdy/buffers"});

    SyntheticParams sp = SyntheticParams::heavy();
    for (const std::string &topo : paperTopologies()) {
        std::uint64_t none = syntheticThroughput(
            args, topo, NicKind::none, sp, topo + ".none");
        std::uint64_t buffers = syntheticThroughput(
            args, topo, NicKind::buffers, sp, topo + ".buffers");
        std::uint64_t nifdy = syntheticThroughput(
            args, topo, NicKind::nifdy, sp, topo + ".nifdy");
        t.row({topo, Table::num(static_cast<long>(none)),
               Table::num(static_cast<long>(buffers)),
               Table::num(static_cast<long>(nifdy)),
               Table::num(double(nifdy) / double(none), 2),
               Table::num(double(nifdy) / double(buffers), 2)});
    }
    args.emit(t);
    args.note("note: counts are data packets handed to processors;"
              " in-order payload gains are shown by bench_fig6/7/8.");
    return args.finish();
}
