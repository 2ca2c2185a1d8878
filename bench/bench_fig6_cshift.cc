/**
 * @file
 * Figure 6: throughput of the cyclic-shift all-to-all pattern on
 * the CM-5-style network, comparing the plain interface with and
 * without Strata-style inter-phase barriers, the buffers-only
 * control, NIFDY's flow control alone (NIFDY-), and NIFDY with the
 * in-order payload benefit exploited (NIFDY).
 *
 * Paper shape: NIFDY's congestion control alone beats optimized
 * barriers; exploiting in-order delivery adds more on top.
 *
 * Args: nodes=64 words=120 seed=1 csv=false
 * (paper uses a 32-node CM-5; see the note in bench_fig5.)
 */

#include "benchutil.hh"
#include "traffic/cshift.hh"

using namespace nifdy;

namespace
{

struct Result
{
    Cycle completion = 0;
    std::uint64_t packets = 0;
    std::uint64_t words = 0;
    bool done = false;
};

Result
runShift(NicKind kind, bool barriers, bool exploitInOrder, int nodes,
         int words, std::uint64_t seed)
{
    ExperimentConfig cfg;
    cfg.topology = "cm5";
    cfg.numNodes = nodes;
    cfg.nicKind = kind;
    cfg.seed = seed;
    cfg.exploitInOrder = exploitInOrder;
    cfg.msg.packetWords = 6;
    Experiment exp(cfg);
    CShiftParams cp;
    cp.wordsPerPair = words;
    cp.barriers = barriers;
    CShiftBoard board(nodes);
    for (NodeId n = 0; n < nodes; ++n) {
        exp.nic(n).setInjectBoard(&board.injected);
        exp.setWorkload(n, std::make_unique<CShiftWorkload>(
                               exp.proc(n), exp.msg(n), exp.barrier(),
                               nodes, cp, board, seed));
    }
    Result r;
    exp.runUntilDone(40000000);
    r.done = exp.allDone();
    r.completion = exp.kernel().now();
    r.packets = exp.packetsDelivered();
    r.words = exp.wordsDelivered();
    return r;
}

} // namespace

int
main(int argc, char **argv)
{
    setQuiet(true);
    BenchArgs args(argc, argv, 0);
    int words = 120;
    args.conf.knob("words", words, "cshift payload words per pair", 1);
    args.conf.close();

    struct Row
    {
        const char *name;
        NicKind kind;
        bool barriers;
        bool inOrder;
    };
    const Row rows[] = {
        {"none", NicKind::none, false, true},
        {"none + barriers", NicKind::none, true, true},
        {"buffers only", NicKind::buffers, false, true},
        {"nifdy- (flow control only)", NicKind::nifdy, false, false},
        {"nifdy (exploits in-order)", NicKind::nifdy, false, true},
    };

    Table t("Figure 6: C-shift on the CM-5-style network, " +
            std::to_string(args.nodes) + " nodes, " +
            std::to_string(words) + " payload words per pair");
    t.header({"configuration", "cycles", "payload words/kcycle",
              "packets"});
    double base = 0;
    for (const Row &r : rows) {
        Result res = runShift(r.kind, r.barriers, r.inOrder,
                              args.nodes, words, args.seed);
        if (!res.done) {
            t.row({r.name, "did not finish", "-", "-"});
            continue;
        }
        double wpk = res.words * 1000.0 / res.completion;
        if (base == 0)
            base = wpk;
        t.row({r.name, Table::num(static_cast<long>(res.completion)),
               Table::num(wpk, 1) + " (" + Table::num(wpk / base, 2) +
                   "x)",
               Table::num(static_cast<long>(res.packets))});
    }
    args.emit(t);
    return args.finish();
}
