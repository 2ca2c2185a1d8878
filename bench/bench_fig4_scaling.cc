/**
 * @file
 * Figure 4: scalability of the NIFDY parameters. Normalized
 * throughput (relative to the same machine without NIFDY) versus
 * machine size on the full 4-ary fat tree, sweeping the outgoing
 * pool size B at fixed O and the OPT size O at fixed B. Short
 * messages only and no bulk dialogs, as in the paper.
 *
 * Paper shape: at fixed B (or O) the relative benefit of NIFDY does
 * not decrease -- and mostly grows -- with machine size; O = 8 is
 * near-best across sizes.
 *
 * Args: cycles=120000 seed=1 csv=false
 */

#include "benchutil.hh"

using namespace nifdy;

namespace
{

SyntheticParams
shortMessages()
{
    SyntheticParams sp = SyntheticParams::heavy();
    sp.lengthDist = {{1, 2}, {2, 1}, {3, 1}};
    return sp;
}

std::uint64_t
run(int nodes, NicKind kind, int o, int b, Cycle cycles,
    std::uint64_t seed)
{
    ExperimentConfig cfg;
    cfg.topology = "fattree";
    cfg.numNodes = nodes;
    cfg.nicKind = kind;
    cfg.seed = seed;
    cfg.msg.bulkThreshold = 0; // no bulk dialogs in this study
    cfg.nifdyExplicit = true;
    cfg.nifdy.opt = o;
    cfg.nifdy.pool = b;
    cfg.nifdy.dialogs = 0;
    cfg.nifdy.window = 0;
    auto exp = syntheticExperiment(cfg, shortMessages());
    exp->runFor(cycles);
    return exp->packetsDelivered();
}

} // namespace

int
main(int argc, char **argv)
{
    setQuiet(true);
    BenchArgs args(argc, argv, 120000, /*defNodes=*/0);
    args.conf.close();
    const std::vector<int> sizes{16, 64, 256};

    // Baseline: the plain interface at each size.
    std::vector<std::uint64_t> base;
    for (int n : sizes)
        base.push_back(
            run(n, NicKind::none, 8, 8, args.cycles, args.seed));

    {
        Table t("Figure 4a: normalized throughput vs machine size, "
                "varying pool size B (O = 8)");
        std::vector<std::string> hdr{"B"};
        for (int n : sizes)
            hdr.push_back(std::to_string(n) + " nodes");
        t.header(hdr);
        for (int b : {2, 4, 8}) {
            std::vector<std::string> row{std::to_string(b)};
            for (std::size_t i = 0; i < sizes.size(); ++i) {
                auto v = run(sizes[i], NicKind::nifdy, 8, b,
                             args.cycles, args.seed);
                row.push_back(Table::num(double(v) / base[i], 3));
            }
            t.row(row);
        }
        args.emit(t);
    }
    {
        Table t("Figure 4b: normalized throughput vs machine size, "
                "varying OPT size O (B = 8)");
        std::vector<std::string> hdr{"O"};
        for (int n : sizes)
            hdr.push_back(std::to_string(n) + " nodes");
        t.header(hdr);
        for (int o : {2, 4, 8, 16}) {
            std::vector<std::string> row{std::to_string(o)};
            for (std::size_t i = 0; i < sizes.size(); ++i) {
                auto v = run(sizes[i], NicKind::nifdy, o, 8,
                             args.cycles, args.seed);
                row.push_back(Table::num(double(v) / base[i], 3));
            }
            t.row(row);
        }
        args.emit(t);
    }
    args.note("values are packets delivered relative to the same\n"
              "machine with the plain interface (1.0 = no benefit).");
    return args.finish();
}
