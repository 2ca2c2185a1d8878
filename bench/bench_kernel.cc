/**
 * @file
 * Kernel throughput bench: the perf trajectory anchor.
 *
 * Measures *simulator* speed -- sim-cycles/sec and flit-events/sec
 * of host wall time -- across a small config grid spanning the
 * kernel's cost regimes:
 *
 *   idle       64-node fat tree, no workload: pure step-loop
 *              overhead, the idle-skipping headroom ceiling
 *   fig2heavy  64-node fat tree, heavy synthetic traffic: the
 *              paper's standard stress point
 *   faultsoak  16-node lossy fat tree, 5% in-fabric drops: fault
 *              injection + retransmission machinery
 *   bigtree    256-node fat tree, light synthetic traffic: the
 *              largest fat tree, component-count scaling
 *
 * The fig2heavy config additionally runs with profile.enabled to
 * measure the profiler's own overhead (the run must replay the exact
 * same simulation -- checked -- and stay within ~10%).
 *
 * Determinism: cycle/flit/packet counts are deterministic and go in
 * the normal report metrics; wall times and rates are host facts and
 * go in the nondeterministic "profile" section (see DESIGN.md
 * section 12). `--json BENCH_kernel.json` writes the committed
 * baseline. CI checks its deterministic counts against a fresh run
 * (release job), and the perf-smoke job gates large throughput
 * regressions against its rates with
 * `tools/analyze.py profile --gate`.
 *
 * Usage: bench_kernel [cycles=N] [grid=idle,fig2heavy,...]
 *                     [seed=N] [--json PATH]
 */

#include <algorithm>
#include <chrono>
#include <iterator>
#include <string>
#include <vector>

#include "benchutil.hh"

namespace nifdy
{
namespace
{

std::uint64_t
wallNowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

enum class Load { none, light, heavy };

struct GridSpec
{
    const char *tag;
    const char *topology;
    int nodes;
    NicKind kind;
    Load load;
    double faultDrop;
};

const GridSpec grid[] = {
    {"idle", "fattree", 64, NicKind::nifdy, Load::none, 0.0},
    {"fig2heavy", "fattree", 64, NicKind::nifdy, Load::heavy, 0.0},
    {"faultsoak", "fattree", 16, NicKind::lossy, Load::heavy, 0.05},
    {"bigtree", "fattree", 256, NicKind::nifdy, Load::light, 0.0},
};

struct RunResult
{
    Cycle cycles = 0;
    std::uint64_t wallNs = 0;
    std::uint64_t flits = 0;   //!< flit events in the timed window
    std::uint64_t packets = 0; //!< deliveries in the timed window
};

std::unique_ptr<Experiment>
makeGridExperiment(const GridSpec &spec, std::uint64_t seed,
                   bool profiled, ExperimentConfig cfg)
{
    cfg.topology = spec.topology;
    cfg.numNodes = spec.nodes;
    cfg.nicKind = spec.kind;
    cfg.seed = seed;
    cfg.msg.packetWords = 8;
    if (spec.faultDrop > 0)
        cfg.fault.dropProb = spec.faultDrop;
    if (profiled)
        cfg.profile.enabled = true;
    auto exp = std::make_unique<Experiment>(cfg);
    if (spec.load != Load::none) {
        SyntheticParams sp = spec.load == Load::heavy
                                 ? SyntheticParams::heavy()
                                 : SyntheticParams::light();
        for (NodeId n = 0; n < exp->numNodes(); ++n)
            exp->setWorkload(n, std::make_unique<SyntheticWorkload>(
                                    exp->proc(n), exp->msg(n),
                                    exp->barrier(), exp->numNodes(),
                                    sp, seed));
    }
    return exp;
}

/** Warm up (pools fill, protocol reaches steady state), then time a
 * fixed window of wall clock around runFor(). */
RunResult
timeRun(Experiment &exp, Cycle warmup, Cycle cycles)
{
    exp.runFor(warmup);
    RunResult r;
    std::uint64_t flits0 = exp.network().totalFlitsSwitched();
    std::uint64_t pkts0 = exp.packetsDelivered();
    std::uint64_t t0 = wallNowNs();
    r.cycles = exp.runFor(cycles);
    r.wallNs = wallNowNs() - t0;
    r.flits = exp.network().totalFlitsSwitched() - flits0;
    r.packets = exp.packetsDelivered() - pkts0;
    return r;
}

/** Which grid configs @p names selects: exact config names,
 * comma-separated, or every config when empty. An unknown name is
 * fatal, so a misspelled grid= never runs an empty table. */
std::vector<bool>
selectGrid(const std::string &names)
{
    std::vector<bool> on(std::size(grid), names.empty());
    std::string valid;
    for (const GridSpec &spec : grid)
        valid += std::string(valid.empty() ? "" : ", ") + spec.tag;
    for (std::size_t at = 0; !names.empty() && at <= names.size();) {
        std::size_t end = std::min(names.find(',', at), names.size());
        const std::string name = names.substr(at, end - at);
        std::size_t i = 0;
        while (i < std::size(grid) && name != grid[i].tag)
            ++i;
        fatal_if(i == std::size(grid),
                 "grid=%s: unknown config '%s' (valid: %s)",
                 names.c_str(), name.c_str(), valid.c_str());
        on[i] = true;
        at = end + 1;
    }
    return on;
}

void
recordRun(BenchArgs &args, const std::string &tag, const RunResult &r)
{
    // Deterministic window counts -> normal metrics.
    args.report.addMetric("kernel." + tag + ".cycles",
                          std::uint64_t(r.cycles));
    args.report.addMetric("kernel." + tag + ".flits", r.flits);
    args.report.addMetric("kernel." + tag + ".packets", r.packets);
    // Host wall time and rates -> quarantined profile section.
    double sec = double(r.wallNs) * 1e-9;
    args.report.addProfile("kernel." + tag + ".wall.ns", r.wallNs);
    if (sec > 0) {
        args.report.addProfile("kernel." + tag + ".cycles.persec",
                               double(r.cycles) / sec);
        args.report.addProfile("kernel." + tag + ".flits.persec",
                               double(r.flits) / sec);
    }
}

int
benchMain(int argc, char **argv)
{
    BenchArgs args(argc, argv, /*defCycles=*/40000);
    args.bindTelemetry();
    std::string only;
    args.conf.knob("grid", only,
                   "comma-separated configs to run (default: all of "
                   "idle, fig2heavy, faultsoak, bigtree)");
    args.conf.close();
    const std::vector<bool> selected = selectGrid(only);

    Table t("kernel throughput grid (deterministic window counts)");
    t.header({"config", "topology", "nodes", "cycles", "flit events",
              "packets"});

    for (std::size_t g = 0; g < std::size(grid); ++g) {
        if (!selected[g])
            continue;
        const GridSpec &spec = grid[g];
        Cycle warmup = args.cycles / 10;
        auto exp =
            makeGridExperiment(spec, args.seed, false, args.base);
        RunResult r = timeRun(*exp, warmup, args.cycles);
        recordRun(args, spec.tag, r);
        t.row({spec.tag, spec.topology,
               Table::num(static_cast<long>(spec.nodes)),
               Table::num(static_cast<long>(r.cycles)),
               Table::num(static_cast<long>(r.flits)),
               Table::num(static_cast<long>(r.packets))});
        printRaw(std::string(spec.tag) + ": " +
                 Table::num(double(r.cycles) * 1e9 /
                                double(r.wallNs),
                            0) +
                 " cycles/s, " +
                 Table::num(double(r.flits) * 1e9 /
                                double(r.wallNs),
                            0) +
                 " flit events/s\n");

        if (std::string(spec.tag) == "fig2heavy") {
            // Same config with the profiler attached: measures the
            // profiler's own overhead. The simulation itself must be
            // bit-identical -- the profiler only observes.
            auto pexp = makeGridExperiment(spec, args.seed, true,
                                           args.base);
            RunResult pr = timeRun(*pexp, warmup, args.cycles);
            panic_if(pr.flits != r.flits || pr.packets != r.packets,
                     "profiled run diverged from the plain run: "
                     "the profiler must not perturb the simulation");
            recordRun(args, "fig2heavyprof", pr);
            recordProfile(*pexp, args, "fig2heavy");
            double overhead =
                double(pr.wallNs) / double(r.wallNs) - 1.0;
            args.report.addProfile("kernel.profile.overheadfrac",
                                   overhead);
            printRaw("fig2heavy profiler overhead: " +
                     Table::num(overhead * 100.0, 1) + "%\n");
        }
    }

    args.emit(t);
    return args.finish();
}

} // namespace
} // namespace nifdy

int
main(int argc, char **argv)
{
    return nifdy::benchMain(argc, argv);
}
