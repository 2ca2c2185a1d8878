/**
 * @file
 * Kernel work-count grid: deterministic window counts across a small
 * config grid spanning the kernel's cost regimes:
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
 * Each config warms up for a tenth of the window, then counts the
 * cycles, flit events and packet deliveries of the window, and the
 * work the kernel, routers and NICs did in it ("kernel.<tag>.work.*":
 * component steps the kernel ran, which sleeping NICs and processors
 * skip; input ports visited, allocation attempts and switch requests
 * examined, summed over routers; NIC pump runs, pooled packets
 * tested for NIFDY admission and retransmit snapshots examined,
 * summed over NICs). The
 * fig2heavy config runs a second time with profile.enabled: the twin
 * must replay the exact same simulation and steps (checked), and its
 * step and idle-step counts per component class go in the report as
 * "profile.fig2heavy.*" metrics.
 *
 * Every metric is a pure function of the arguments; only the
 * profiler's own host-time figures ("host.fig2heavy.*") land in the
 * nondeterministic "profile" section (see DESIGN.md section 12).
 * `--json BENCH_kernel.json` writes the committed snapshot, which CI
 * compares with a fresh run (release job). Host time is measured by
 * perfbench, not here (perfbench/README.md).
 *
 * Usage: bench_kernel [cycles=N] [grid=idle,fig2heavy,...]
 *                     [seed=N] [--json PATH]
 */

#include <algorithm>
#include <iterator>
#include <string>
#include <vector>

#include "benchutil.hh"

namespace nifdy
{
namespace
{

struct GridSpec
{
    const char *tag;
    const char *topology;
    int nodes;
    NicKind kind;
    SyntheticParams (*load)(); //!< nullptr: no workload
    double faultDrop;
};

const GridSpec grid[] = {
    {"idle", "fattree", 64, NicKind::nifdy, nullptr, 0.0},
    {"fig2heavy", "fattree", 64, NicKind::nifdy, &SyntheticParams::heavy,
     0.0},
    {"faultsoak", "fattree", 16, NicKind::lossy, &SyntheticParams::heavy,
     0.05},
    {"bigtree", "fattree", 256, NicKind::nifdy, &SyntheticParams::light,
     0.0},
};

/** Kernel, router and NIC work, summed over the machine. */
struct Work
{
    std::uint64_t steps = 0;    //!< component steps the kernel ran
    std::uint64_t inputs = 0;   //!< router input ports visited
    std::uint64_t allocs = 0;   //!< router allocation attempts
    std::uint64_t requests = 0; //!< switch requests examined
    std::uint64_t nicPumps = 0; //!< NIC pump runs
    std::uint64_t nicAdmissions = 0; //!< pooled packets tested
    std::uint64_t nicTimers = 0;     //!< retransmit snapshots examined

    bool operator==(const Work &) const = default;
};

Work
workSoFar(Experiment &exp)
{
    Work w;
    w.steps = exp.kernel().steps();
    Network &net = exp.network();
    for (int r = 0; r < net.numRouters(); ++r) {
        const Router::Work &rw = net.router(r).work();
        w.inputs += rw.inputs;
        w.allocs += rw.allocs;
        w.requests += rw.requests;
    }
    for (NodeId n = 0; n < exp.numNodes(); ++n) {
        const Nic &nic = exp.nic(n);
        w.nicPumps += nic.pumpRuns();
        if (const auto *nn = dynamic_cast<const NifdyNic *>(&nic))
            w.nicAdmissions += nn->admissionChecks();
        if (const auto *ln = dynamic_cast<const LossyNifdyNic *>(&nic))
            w.nicTimers += ln->timerChecks();
    }
    return w;
}

struct WindowCounts
{
    Cycle cycles = 0;
    std::uint64_t flits = 0;   //!< flit events in the window
    std::uint64_t packets = 0; //!< deliveries in the window
    Work work;                 //!< work done in the window
};

std::unique_ptr<Experiment>
makeGridExperiment(const GridSpec &spec, std::uint64_t seed,
                   bool profiled)
{
    ExperimentConfig cfg;
    cfg.topology = spec.topology;
    cfg.numNodes = spec.nodes;
    cfg.nicKind = spec.kind;
    cfg.seed = seed;
    if (spec.faultDrop > 0)
        cfg.fault.dropProb = spec.faultDrop;
    cfg.profile.enabled = profiled;
    if (!spec.load)
        return std::make_unique<Experiment>(cfg);
    return syntheticExperiment(cfg, spec.load());
}

/** Warm up (pools fill, protocol reaches steady state), then count
 * a fixed window of runFor(). */
WindowCounts
countWindow(Experiment &exp, Cycle warmup, Cycle cycles)
{
    exp.runFor(warmup);
    WindowCounts r;
    std::uint64_t flits0 = exp.network().totalFlitsSwitched();
    std::uint64_t pkts0 = exp.packetsDelivered();
    const Work work0 = workSoFar(exp);
    r.cycles = exp.runFor(cycles);
    r.flits = exp.network().totalFlitsSwitched() - flits0;
    r.packets = exp.packetsDelivered() - pkts0;
    const Work work1 = workSoFar(exp);
    r.work.steps = work1.steps - work0.steps;
    r.work.inputs = work1.inputs - work0.inputs;
    r.work.allocs = work1.allocs - work0.allocs;
    r.work.requests = work1.requests - work0.requests;
    r.work.nicPumps = work1.nicPumps - work0.nicPumps;
    r.work.nicAdmissions = work1.nicAdmissions - work0.nicAdmissions;
    r.work.nicTimers = work1.nicTimers - work0.nicTimers;
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

int
benchMain(int argc, char **argv)
{
    BenchArgs args(argc, argv, /*defCycles=*/40000, /*defNodes=*/0);
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
        const std::string tag = spec.tag;
        Cycle warmup = args.cycles / 10;
        auto exp = makeGridExperiment(spec, args.seed, false);
        WindowCounts r = countWindow(*exp, warmup, args.cycles);
        args.report.addMetric("kernel." + tag + ".cycles",
                              std::uint64_t(r.cycles));
        args.report.addMetric("kernel." + tag + ".flits", r.flits);
        args.report.addMetric("kernel." + tag + ".packets", r.packets);
        args.report.addMetric("kernel." + tag + ".work.kernel.steps",
                              r.work.steps);
        args.report.addMetric("kernel." + tag + ".work.router.inputs",
                              r.work.inputs);
        args.report.addMetric("kernel." + tag + ".work.router.allocs",
                              r.work.allocs);
        args.report.addMetric("kernel." + tag + ".work.router.requests",
                              r.work.requests);
        args.report.addMetric("kernel." + tag + ".work.nic.pumps",
                              r.work.nicPumps);
        args.report.addMetric("kernel." + tag + ".work.nic.admissions",
                              r.work.nicAdmissions);
        args.report.addMetric("kernel." + tag + ".work.nic.timers",
                              r.work.nicTimers);
        t.row({tag, spec.topology,
               Table::num(static_cast<long>(spec.nodes)),
               Table::num(static_cast<long>(r.cycles)),
               Table::num(static_cast<long>(r.flits)),
               Table::num(static_cast<long>(r.packets))});

        if (tag == "fig2heavy") {
            // The profiled twin: the profiler only observes, so the
            // simulation must be bit-identical to the plain run.
            auto pexp = makeGridExperiment(spec, args.seed, true);
            WindowCounts pr = countWindow(*pexp, warmup, args.cycles);
            panic_if(pr.flits != r.flits || pr.packets != r.packets ||
                         pr.work != r.work,
                     "profiled run diverged from the plain run: "
                     "the profiler must not perturb the simulation");
            recordProfile(*pexp, args, tag);
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
