/**
 * @file
 * Section 6.3 extension evaluation (proposed but not measured in
 * the paper): NIFDY with adaptive routing on a mesh. The paper
 * observes that adaptive routing "in the past has not performed
 * well enough to justify its expense" and conjectures that adding
 * NIFDY's admission control and in-order delivery "may help
 * adaptive routing reach its potential."
 *
 * Compares dimension-order vs Duato-style minimal-adaptive routing
 * on the 8x8 mesh under heavy and light synthetic traffic for each
 * NIC configuration. Without NIFDY, adaptivity scrambles packet
 * order (software pays the reorder cost) and spreads secondary
 * blocking over all paths; with NIFDY the reordering is free and
 * admission control keeps the extra paths usable.
 *
 * Args: cycles=120000 nodes=64 seed=1 csv=false
 */

#include "benchutil.hh"

using namespace nifdy;

int
main(int argc, char **argv)
{
    setQuiet(true);
    BenchArgs args(argc, argv, 120000);
    args.conf.close();

    for (bool heavy : {true, false}) {
        SyntheticParams sp = heavy ? SyntheticParams::heavy()
                                   : SyntheticParams::light();
        Table t(std::string("Section 6.3: dimension-order vs "
                            "adaptive mesh routing, ") +
                (heavy ? "heavy" : "light") + " synthetic traffic");
        t.header({"nic", "mesh2d (DOR)", "mesh2d-adaptive",
                  "adaptive/dor"});
        for (NicKind kind :
             {NicKind::none, NicKind::buffers, NicKind::nifdy}) {
            auto dor = syntheticThroughput(args, "mesh2d", kind, sp);
            auto ad =
                syntheticThroughput(args, "mesh2d-adaptive", kind, sp);
            t.row({nicKindName(kind),
                   Table::num(static_cast<long>(dor)),
                   Table::num(static_cast<long>(ad)),
                   Table::num(double(ad) / double(dor), 2)});
        }
        args.emit(t);
    }
    args.note("expected shape: adaptivity pays off best when NIFDY"
              " restores order for free\nand throttles the senders"
              " that would otherwise saturate every alternative"
              " path.");
    return args.finish();
}
