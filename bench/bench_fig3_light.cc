/**
 * @file
 * Figure 3: packets delivered in a fixed window under the "light"
 * synthetic traffic pattern (1/3 senders per phase, long-tailed
 * message lengths, pseudo-random non-responsive receivers).
 *
 * Paper shape: smaller spreads than Figure 2 (less contention), but
 * NIFDY still matches or beats the alternatives; bulk dialogs keep
 * pairwise bandwidth up for the 10- and 20-packet messages.
 *
 * Args: cycles=150000 nodes=64 seed=1 csv=false
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

    Table t("Figure 3: light synthetic traffic, packets delivered in " +
            std::to_string(args.cycles) + " cycles");
    t.header({"network", "none", "buffers", "nifdy", "nifdy/none",
              "nifdy/buffers"});

    SyntheticParams sp = SyntheticParams::light();
    for (const std::string &topo : paperTopologies()) {
        std::uint64_t none =
            syntheticThroughput(args, topo, NicKind::none, sp);
        std::uint64_t buffers =
            syntheticThroughput(args, topo, NicKind::buffers, sp);
        std::uint64_t nifdy =
            syntheticThroughput(args, topo, NicKind::nifdy, sp);
        t.row({topo, Table::num(static_cast<long>(none)),
               Table::num(static_cast<long>(buffers)),
               Table::num(static_cast<long>(nifdy)),
               Table::num(double(nifdy) / double(none), 2),
               Table::num(double(nifdy) / double(buffers), 2)});
    }
    args.emit(t);
    return args.finish();
}
