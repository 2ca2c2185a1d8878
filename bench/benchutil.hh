/**
 * @file
 * Shared helpers for the per-figure bench harnesses: argument
 * binding, standard experiment assembly, and result collection.
 *
 * Every bench accepts "key=value" arguments; BenchArgs binds the
 * common ones
 *   cycles=N       measurement window (benches that run to
 *                  completion have none)
 *   nodes=N        machine size (default per bench; benches that
 *                  sweep fixed machine sizes have none)
 *   seed=N         RNG seed (default 1)
 *   csv=true       additionally emit CSV rows
 *   --json PATH    also write the run report as JSON (or json=PATH)
 * and, for benches that call bindTelemetry(), the observer knobs
 * (trace.*, metrics.*, anatomy.*, congestion.*, profile.*, with
 * --anatomy and --congestion as sugar). Each bench binds its own
 * keys next, then makes the closing conf.close() call: --help lists
 * exactly what the bench reads, and any other argument is fatal
 * before anything runs.
 *
 * Results flow through one RunReport: emit() prints a table to
 * stdout AND records it, so the text output and the `--json` report
 * are always the same data (see DESIGN.md section 8). Machine-wide
 * counters come from Experiment::totals(), and recordAnatomy(),
 * recordCongestion() and recordProfile() write their metric groups
 * through the observer's own reportMetrics(), the writer
 * Experiment::fillReport() uses too; the helpers add only the bench
 * tables. syntheticExperiment() assembles the synthetic benchmark
 * every throughput bench runs.
 *
 * No bench times itself: host time is perfbench's to measure
 * (perfbench/README.md).
 */

#ifndef NIFDY_BENCH_BENCHUTIL_HH
#define NIFDY_BENCH_BENCHUTIL_HH

#include <cstdio>
#include <memory>
#include <string>

#include "harness/experiment.hh"
#include "sim/config.hh"
#include "sim/log.hh"
#include "sim/report.hh"
#include "sim/table.hh"
#include "traffic/synthetic.hh"

namespace nifdy
{

/** Common bench options bound from argv, plus the run report. */
struct BenchArgs
{
    Config conf;
    Cycle cycles;
    int nodes;
    std::uint64_t seed = 1;
    bool csv = false;
    std::string jsonPath;
    /** What every experiment of the bench starts from: defaults,
     * plus the observer knobs once bindTelemetry() has run. */
    ExperimentConfig base;
    RunReport report;

    /** @p defCycles == 0: the bench runs to completion and takes no
     * cycles= knob. @p defNodes == 0: the bench sweeps fixed machine
     * sizes and takes no nodes= knob. */
    BenchArgs(int argc, char **argv, Cycle defCycles, int defNodes = 64)
        : cycles(defCycles), nodes(defNodes),
          report(toolName(argc, argv))
    {
        conf.parseArgs(argc, argv);
        // `--json PATH` is sugar for json=PATH (and echoed as such).
        if (conf.flag("--json", jsonPath,
                      "write the run report as JSON here"))
            conf.set("json", jsonPath);
        if (defCycles > 0)
            conf.knob("cycles", cycles, "measurement window in cycles",
                      1);
        if (defNodes > 0)
            conf.knob("nodes", nodes, "machine size");
        conf.knob("seed", seed, "RNG seed");
        conf.knob("csv", csv, "additionally emit CSV rows");
        conf.knob("json", jsonPath, "write the run report as JSON here");
    }

    /**
     * Bind the observer knobs into base. `--anatomy` is sugar for
     * anatomy.enabled=true and `--congestion` for
     * congestion.enabled=true. Benches that build many experiments
     * get one trace file and one metrics file per experiment: both
     * sinks name theirs through uniquifyPath(), which adds a .2/.3
     * suffix from the second use of a path on.
     */
    void bindTelemetry()
    {
        if (conf.flag("--anatomy", "sugar for anatomy.enabled=true"))
            conf.set("anatomy.enabled", "true");
        if (conf.flag("--congestion",
                      "sugar for congestion.enabled=true"))
            conf.set("congestion.enabled", "true");
        nifdy::bindTelemetry(conf, base);
    }

    /** Print @p t (and CSV when asked) and record it in the report. */
    void emit(const Table &t)
    {
        t.print();
        if (csv)
            printRaw(t.csv());
        report.addTable(t);
    }

    /** Print a note and record it in the report. */
    void note(const std::string &text)
    {
        printRaw(text + "\n");
        report.addNote(text);
    }

    /**
     * Final step of every bench main(): echo the effective common
     * knobs the bench binds into the report and write the JSON
     * document when `--json`/json= was given. Returns the process
     * exit code.
     */
    int finish()
    {
        report.echoConfig(conf);
        if (cycles > 0)
            report.echoConfig(
                "cycles", std::to_string(static_cast<long long>(cycles)));
        if (nodes > 0)
            report.echoConfig("nodes", std::to_string(nodes));
        report.echoConfig("seed",
                          std::to_string(static_cast<long long>(seed)));
        if (!jsonPath.empty())
            report.writeJson(jsonPath);
        return 0;
    }

    static std::string toolName(int argc, char **argv)
    {
        if (argc < 1 || !argv[0] || !*argv[0])
            return "bench";
        std::string path(argv[0]);
        std::size_t slash = path.find_last_of('/');
        return slash == std::string::npos ? path
                                          : path.substr(slash + 1);
    }
};

/**
 * Record an experiment's latency-anatomy results (when enabled) into
 * a bench report under "anatomy.<tag>." metric names, and emit the
 * blame table. `tools/analyze.py latency` consumes the metrics; the
 * `--anatomy` bench flag turns the sink on.
 */
inline void
recordAnatomy(Experiment &exp, BenchArgs &args,
              const std::string &tag)
{
    const Anatomy *an = exp.anatomy();
    if (!an)
        return;
    an->reportMetrics(args.report, tag + ".");
    args.emit(an->blameTable("latency blame: " + tag));
}

/**
 * Record an experiment's congestion-observatory results (when
 * enabled) into a bench report under "congestion.<tag>." metric
 * names and "congestion[<tag>]: ..." table titles, and emit the
 * link stall map. `tools/analyze.py congestion` consumes both; the
 * `--congestion` bench flag turns the observer on.
 */
inline void
recordCongestion(Experiment &exp, BenchArgs &args,
                 const std::string &tag)
{
    CongestionObserver *co = exp.congestion();
    if (!co)
        return;
    co->finish(exp.kernel().now()); // idempotent episode close-out
    co->reportMetrics(args.report, tag + ".");
    const std::string tp = "congestion[" + tag + "]: ";
    args.emit(co->linkTable(tp + "link stall map"));
    args.report.addTable(
        co->flowTable(tp + "flow progress, worst slowdown first"));
    args.report.addTable(co->episodeTable(tp + "episodes"));
}

/**
 * Record an experiment's host-cost profile (when enabled) into a
 * bench report: the deterministic step/idle counters under
 * "profile.<tag>." metric names, the host-time figures under
 * "host.<tag>." names in the nondeterministic profile section.
 * `tools/analyze.py profile` consumes both.
 */
inline void
recordProfile(Experiment &exp, BenchArgs &args,
              const std::string &tag)
{
    if (const Profiler *p = exp.profiler())
        p->reportMetrics(args.report, tag + ".");
}

/**
 * An experiment built from @p cfg with the synthetic benchmark on
 * every node: 8-word packets, and each node's generator seeded with
 * cfg.seed.
 */
inline std::unique_ptr<Experiment>
syntheticExperiment(ExperimentConfig cfg, const SyntheticParams &sp)
{
    cfg.msg.packetWords = 8; // the synthetic benchmark's packet size
    auto exp = std::make_unique<Experiment>(cfg);
    for (NodeId n = 0; n < exp->numNodes(); ++n)
        exp->setWorkload(n, std::make_unique<SyntheticWorkload>(
                                exp->proc(n), exp->msg(n),
                                exp->barrier(), exp->numNodes(), sp,
                                cfg.seed));
    return exp;
}

/**
 * Packets delivered by synthetic traffic on @p topology with @p kind
 * NICs in the bench's window, on its nodes= machine and seed,
 * starting from BenchArgs::base (so its observer knobs apply). With
 * a @p blameTag, whichever attribution sinks are enabled (latency
 * anatomy, congestion observatory) are recorded into the bench
 * report under "anatomy.<blameTag>." / "congestion.<blameTag>."
 * names.
 */
inline std::uint64_t
syntheticThroughput(BenchArgs &args, const std::string &topology,
                    NicKind kind, const SyntheticParams &sp,
                    const std::string &blameTag = "")
{
    ExperimentConfig cfg = args.base;
    cfg.topology = topology;
    cfg.numNodes = args.nodes;
    cfg.nicKind = kind;
    cfg.seed = args.seed;
    auto exp = syntheticExperiment(cfg, sp);
    exp->runFor(args.cycles);
    if (!blameTag.empty()) {
        recordAnatomy(*exp, args, blameTag);
        recordCongestion(*exp, args, blameTag);
    }
    return exp->packetsDelivered();
}

} // namespace nifdy

#endif // NIFDY_BENCH_BENCHUTIL_HH
