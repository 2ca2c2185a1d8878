/**
 * @file
 * The observer contract (DESIGN.md section 8.1): a sink on the probe
 * bus only adds its own names to the run report. For each workload,
 * the bare report names no sink and carries no profile section; and
 * with any one sink attached -- the tracer at two sample rates,
 * metric snapshots, the latency anatomy, the congestion observatory,
 * the host-cost profiler or the invariant audit -- the report, with
 * that sink's names removed, renders byte-identical to the bare one.
 * A sink switched off by its own key leaves only that key behind.
 * Full-report equality covers every delivery, latency and fabric
 * figure the report records, so no observer perturbs the run.
 *
 * One table of workloads and one of sinks drive every case; each
 * case checks one observer and sits in that observer's suite.
 */

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "campaign/jsonin.hh"
#include "harness/experiment.hh"
#include "sim/config.hh"
#include "sim/report.hh"
#include "traffic/cshift.hh"
#include "traffic/incast.hh"
#include "traffic/synthetic.hh"

namespace nifdy
{
namespace
{

/** One workload: run_experiment-style key=value arguments, the
 * traffic kind ("heavy", "incast", or "cshift", which runs to
 * completion) and the cycle budget. */
struct Scenario
{
    const char *name;
    std::vector<std::string> args;
    std::string traffic;
    Cycle cycles;
};

/**
 * One sink: the arguments that attach it ('%' stands for a per-run
 * temporary file stem) and the prefixes of the names it owns. A
 * config key, metric, table title, note or top-level report section
 * starting with one of the prefixes belongs to the sink. A sink
 * switched off by its own key owns only that key.
 */
struct Sink
{
    const char *name;
    std::vector<std::string> args;
    std::vector<std::string> names;
};

const std::vector<Scenario> workloads = {
    {"heavy-mesh", {"topology=mesh2d", "nodes=16"}, "heavy", 20000},
    {"heavy-fattree",
     {"topology=fattree", "nodes=16", "seed=3"},
     "heavy",
     10000},
    // Dateline VC masks, credit-gated allocation and time-sliced
    // serializers: the router's fast path (parked heads, skipped
    // outputs) against the full scan the anatomy and the congestion
    // observatory get.
    {"heavy-torus", {"topology=torus2d", "nodes=16"}, "heavy", 10000},
    {"heavy-adaptive-mesh",
     {"topology=mesh2d-adaptive", "nodes=16"},
     "heavy",
     10000},
    {"heavy-cm5", {"topology=cm5", "nodes=16"}, "heavy", 20000},
    {"incast-mesh", {"topology=mesh2d", "nodes=16"}, "incast", 20000},
    {"lossy-cshift",
     {"nodes=16", "nic=lossy", "fault.dropProb=0.001", "seed=7"},
     "cshift",
     200000},
};

const Sink traceSink = {
    "trace", {"trace.path=%.json", "trace.sampleRate=1"}, {"trace."}};
const Sink sampledTraceSink = {
    "trace-sampled",
    {"trace.path=%.json", "trace.sampleRate=0.25"},
    {"trace."}};
const Sink metricsSink = {"metrics", {"metrics.path=%.jsonl"}, {"metrics."}};
const Sink anatomySink = {
    "anatomy", {"anatomy.enabled=true"}, {"anatomy.", "latency blame"}};
const Sink anatomyOffSink = {
    "anatomy-off", {"anatomy.enabled=false"}, {"anatomy.enabled"}};
const Sink congestionSink = {
    "congestion",
    {"congestion.enabled=true", "congestion.window=512"},
    {"congestion"}};
const Sink congestionOffSink = {
    "congestion-off", {"congestion.enabled=false"}, {"congestion.enabled"}};
const Sink profileSink = {"profile",
                          {"profile.enabled=true", "profile.interval=1"},
                          {"profile"}};
const Sink profileOffSink = {
    "profile-off", {"profile.enabled=false"}, {"profile.enabled"}};
const Sink auditSink = {"audit", {"audit=true"}, {"audit"}};

RunReport
runReport(const Scenario &run, const std::vector<std::string> &extra,
          const std::string &stem)
{
    Config conf;
    std::vector<std::string> args = run.args;
    for (std::string kv : extra) {
        if (std::size_t at = kv.find('%'); at != std::string::npos)
            kv.replace(at, 1, stem);
        args.push_back(kv);
    }
    for (const std::string &kv : args) {
        std::size_t eq = kv.find('=');
        conf.set(kv.substr(0, eq), kv.substr(eq + 1));
    }
    ExperimentConfig cfg = experimentFromConfig(conf);
    RunReport rep("test_probes");
    {
        Experiment exp(cfg);
        CShiftBoard board(exp.numNodes());
        for (NodeId n = 0; n < exp.numNodes(); ++n) {
            std::unique_ptr<Workload> w;
            if (run.traffic == "incast") {
                w = std::make_unique<IncastWorkload>(
                    exp.proc(n), exp.msg(n), exp.barrier(),
                    exp.numNodes(), IncastParams{}, cfg.seed);
            } else if (run.traffic == "cshift") {
                exp.nic(n).setInjectBoard(&board.injected);
                w = std::make_unique<CShiftWorkload>(
                    exp.proc(n), exp.msg(n), exp.barrier(),
                    exp.numNodes(), CShiftParams{}, board, cfg.seed);
            } else {
                w = std::make_unique<SyntheticWorkload>(
                    exp.proc(n), exp.msg(n), exp.barrier(),
                    exp.numNodes(), SyntheticParams::heavy(), cfg.seed);
            }
            exp.setWorkload(n, std::move(w));
        }
        if (run.traffic == "cshift")
            exp.runUntilDone(run.cycles);
        else
            exp.runFor(run.cycles);
        rep.echoConfig(conf);
        exp.fillReport(rep);
    }
    std::remove((stem + ".json").c_str());
    std::remove((stem + ".jsonl").c_str());
    return rep;
}

bool
named(const std::string &s, const std::vector<std::string> &names)
{
    for (const std::string &prefix : names)
        if (s.rfind(prefix, 0) == 0)
            return true;
    return false;
}

void
dropMembers(JsonValue &obj, const std::vector<std::string> &names)
{
    std::erase_if(obj.members, [&](const auto &kv) {
        return named(kv.first, names);
    });
}

/** @p reportJson re-rendered without any member, table or note
 * owned by @p names. */
std::string
withoutNames(const std::string &reportJson,
             const std::vector<std::string> &names)
{
    JsonValue doc = parseJson(reportJson);
    for (auto &[key, section] : doc.members) {
        if (key == "config" || key == "metrics")
            dropMembers(section, names);
        else if (key == "tables")
            std::erase_if(section.items, [&](const JsonValue &t) {
                return named(t.getString("title"), names);
            });
        else if (key == "notes")
            std::erase_if(section.items, [&](const JsonValue &note) {
                return named(note.text, names);
            });
    }
    dropMembers(doc, names);
    return doc.render();
}

/**
 * Checks @p sinks against the contract on every workload. The bare
 * report renders the same with or without its profile section, and
 * no sink's name occurs anywhere in it. With one sink attached, the
 * report less that sink's names renders identical to the bare one.
 */
void
expectOnlyOwnNames(const std::vector<Sink> &sinks)
{
    for (const Scenario &run : workloads) {
        SCOPED_TRACE(run.name);
        const std::string stem =
            ::testing::TempDir() + "nifdy_probes_" + run.name;
        const RunReport bare = runReport(run, {}, stem);
        const std::string bareJson = bare.json();
        EXPECT_EQ(bareJson, bare.json(false));
        const std::string expected = withoutNames(bareJson, {});
        for (const Sink &sink : sinks) {
            SCOPED_TRACE(sink.name);
            for (const std::string &name : sink.names)
                EXPECT_EQ(bareJson.find(name), std::string::npos)
                    << "the bare report names " << name;
            const RunReport with =
                runReport(run, sink.args, stem + "_" + sink.name);
            EXPECT_EQ(withoutNames(with.json(), sink.names), expected);
        }
    }
}

TEST(Telemetry, TracingDoesNotPerturbTheRun)
{
    expectOnlyOwnNames({traceSink, sampledTraceSink});
}

TEST(Telemetry, MetricsSnapshotsDoNotPerturbTheRun)
{
    expectOnlyOwnNames({metricsSink});
}

TEST(Anatomy, AttributionDoesNotPerturbTheRun)
{
    expectOnlyOwnNames({anatomySink, anatomyOffSink});
}

TEST(Congestion, ObservationDoesNotPerturbTheRun)
{
    expectOnlyOwnNames({congestionSink});
}

TEST(Congestion, OffReportCarriesNoCongestionNames)
{
    expectOnlyOwnNames({congestionOffSink});
}

TEST(Profile, ProfilingDoesNotPerturbTheSimulation)
{
    expectOnlyOwnNames({profileSink});
}

TEST(Profile, OffReportsCarryNoProfileContent)
{
    expectOnlyOwnNames({profileOffSink});
}

TEST(AuditClean, CheckingDoesNotPerturbTheRun)
{
    expectOnlyOwnNames({auditSink});
}

} // namespace
} // namespace nifdy
