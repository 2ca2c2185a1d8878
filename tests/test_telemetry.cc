/**
 * @file
 * Tests for the observability layer (DESIGN.md section 8): the JSON
 * writer, run reports, the packet-lifecycle tracer (sampling, event
 * budget) and periodic metric snapshots. Non-perturbation is the
 * observer contract's (tests/test_probes.cc).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "campaign/jsonin.hh"
#include "harness/experiment.hh"
#include "sim/config.hh"
#include "sim/json.hh"
#include "sim/report.hh"
#include "sim/stats.hh"
#include "traffic/collective.hh"
#include "traffic/synthetic.hh"

namespace nifdy
{
namespace
{

std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << path;
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

std::size_t
countOf(const std::string &hay, const std::string &needle)
{
    std::size_t n = 0;
    for (std::size_t pos = hay.find(needle); pos != std::string::npos;
         pos = hay.find(needle, pos + needle.size()))
        ++n;
    return n;
}

/** A small traced/metered heavy run; returns packets delivered and
 * reports the tracer's output path and counters via out-params. */
std::uint64_t
runSmall(ExperimentConfig cfg, std::string *tracePath = nullptr,
         std::uint64_t *recorded = nullptr,
         std::uint64_t *dropped = nullptr)
{
    cfg.topology = "mesh2d";
    cfg.numNodes = 16;
    cfg.nicKind = NicKind::nifdy;
    cfg.msg.packetWords = 8;
    Experiment exp(cfg);
    for (NodeId n = 0; n < exp.numNodes(); ++n)
        exp.setWorkload(n, std::make_unique<SyntheticWorkload>(
                               exp.proc(n), exp.msg(n), exp.barrier(),
                               exp.numNodes(),
                               SyntheticParams::heavy(), 1));
    exp.runFor(20000);
    if (exp.tracer()) {
        if (tracePath)
            *tracePath = exp.tracer()->path();
        if (recorded)
            *recorded = exp.tracer()->eventsRecorded();
        if (dropped)
            *dropped = exp.tracer()->eventsDropped();
    }
    return exp.packetsDelivered();
}

TEST(Telemetry, JsonWriterStructureAndEscaping)
{
    JsonWriter w;
    w.beginObject();
    w.field("s", "a\"b\\c\n\t");
    w.field("i", std::int64_t(-3));
    w.field("u", std::uint64_t(7));
    w.field("d", 1.5);
    w.field("t", true);
    w.key("arr");
    w.beginArray();
    w.value(1);
    w.valueNull();
    w.endArray();
    w.endObject();
    EXPECT_EQ(w.str(),
              "{\"s\":\"a\\\"b\\\\c\\n\\t\",\"i\":-3,\"u\":7,"
              "\"d\":1.5,\"t\":true,\"arr\":[1,null]}");
    EXPECT_EQ(JsonWriter::escape("ctrl\x01"), "ctrl\\u0001");
    EXPECT_EQ(JsonWriter::numStr(0.25), "0.25");
}

TEST(Telemetry, RunReportJsonShape)
{
    RunReport rep("unit_test");
    rep.echoConfig("nodes", "16");
    rep.addMetric("run.goodput", 0.5);
    rep.addMetric("run.cycles", std::uint64_t(100));
    rep.addNote("hello");
    Table t("demo");
    t.header({"a", "b"});
    t.row({"1", "2"});
    rep.addTable(t);

    std::string j = rep.json();
    EXPECT_NE(j.find("\"schema\":\"nifdy-report-1\""),
              std::string::npos);
    EXPECT_NE(j.find("\"tool\":\"unit_test\""), std::string::npos);
    EXPECT_NE(j.find("\"nodes\":\"16\""), std::string::npos);
    EXPECT_NE(j.find("\"run.goodput\":0.5"), std::string::npos);
    EXPECT_NE(j.find("\"run.cycles\":100"), std::string::npos);
    EXPECT_NE(j.find("\"notes\":[\"hello\"]"), std::string::npos);
    EXPECT_NE(j.find("\"title\":\"demo\""), std::string::npos);
}

TEST(Telemetry, TracedRunWritesBalancedChains)
{
    ExperimentConfig cfg;
    cfg.trace.path = ::testing::TempDir() + "nifdy_t1_trace.json";
    std::string path;
    std::uint64_t recorded = 0;
    std::uint64_t delivered = runSmall(cfg, &path, &recorded);
    EXPECT_GT(delivered, 0u);
    ASSERT_FALSE(path.empty());
    EXPECT_GT(recorded, 0u);

    std::string doc = slurp(path);
    EXPECT_NE(doc.find("\"schema\":\"nifdy-trace-1\""),
              std::string::npos);
    EXPECT_NE(doc.find("\"clockDomain\":\"cycles\""),
              std::string::npos);
    std::size_t begins = countOf(doc, "\"ph\":\"b\"");
    std::size_t ends = countOf(doc, "\"ph\":\"e\"");
    EXPECT_GT(begins, 0u);
    EXPECT_EQ(begins, ends);
    EXPECT_NE(doc.find("nic.packet.send"), std::string::npos);
    EXPECT_NE(doc.find("nic.packet.deliver"), std::string::npos);
    EXPECT_NE(doc.find("router.packet.hop"), std::string::npos);
}

TEST(Telemetry, SampleRateZeroRecordsNoEvents)
{
    ExperimentConfig cfg;
    cfg.trace.path = ::testing::TempDir() + "nifdy_t2_trace.json";
    cfg.trace.sampleRate = 0.0;
    std::uint64_t recorded = ~std::uint64_t(0);
    runSmall(cfg, nullptr, &recorded);
    EXPECT_EQ(recorded, 0u);
}

TEST(Telemetry, EventBudgetBoundsTheBuffer)
{
    ExperimentConfig cfg;
    cfg.trace.path = ::testing::TempDir() + "nifdy_t3_trace.json";
    cfg.trace.maxEvents = 64;
    std::uint64_t recorded = 0;
    std::uint64_t dropped = 0;
    runSmall(cfg, nullptr, &recorded, &dropped);
    EXPECT_LE(recorded, 64u);
    EXPECT_GT(dropped, 0u);
}

TEST(Telemetry, MetricsSnapshotsAreJsonl)
{
    ExperimentConfig cfg;
    cfg.metrics.path = ::testing::TempDir() + "nifdy_metrics.jsonl";
    cfg.metrics.interval = 1000;
    std::uint64_t delivered = runSmall(cfg);
    EXPECT_GT(delivered, 0u);

    std::istringstream in(slurp(cfg.metrics.path));
    std::string line;
    std::size_t lines = 0;
    while (std::getline(in, line)) {
        ++lines;
        EXPECT_NE(line.find("\"schema\":\"nifdy-metrics-1\""),
                  std::string::npos);
        EXPECT_NE(line.find("\"cycle\":"), std::string::npos);
        EXPECT_NE(line.find("run.goodput"), std::string::npos);
        EXPECT_EQ(line.front(), '{');
        EXPECT_EQ(line.back(), '}');
    }
    // One snapshot per interval over 20k cycles, plus the final one.
    EXPECT_GE(lines, 10u);
    EXPECT_LE(lines, 30u);
}

/** The last line of a metrics JSONL file, parsed. */
JsonValue
lastSnapshot(const std::string &path)
{
    std::istringstream in(slurp(path));
    std::string line;
    std::string last;
    while (std::getline(in, line))
        last = line;
    std::string err;
    JsonValue v = parseJson(last, &err);
    EXPECT_TRUE(err.empty()) << err;
    return v;
}

TEST(Telemetry, MetricsPathIsUniquifiedPerExperiment)
{
    // Two experiments of one process given the same metrics.path
    // each keep their own file, as two traced experiments do.
    const std::string path =
        ::testing::TempDir() + "nifdy_metrics_twice.jsonl";
    const std::string second =
        ::testing::TempDir() + "nifdy_metrics_twice.2.jsonl";
    std::remove(path.c_str());
    std::remove(second.c_str());
    for (Cycle cycles : {Cycle(1500), Cycle(2500)}) {
        ExperimentConfig cfg;
        cfg.topology = "mesh2d";
        cfg.numNodes = 16;
        cfg.metrics.path = path;
        Experiment exp(cfg);
        exp.runFor(cycles);
    }
    EXPECT_EQ(lastSnapshot(path).getString("cycle"), "1500");
    EXPECT_EQ(lastSnapshot(second).getString("cycle"), "2500");
}

TEST(Telemetry, GaugesReportAndStatsTableAgree)
{
    // Every counter family live: lossy NICs under fabric drops and
    // corruption, a crash and restart, NIC collectives, anatomy and
    // the congestion observatory.
    Config conf;
    conf.set("nodes", 16L);
    conf.set("nic", std::string("lossy"));
    conf.set("fault.dropProb", 0.01);
    conf.set("fault.corruptProb", 0.005);
    conf.set("node.crash", std::string("5@4000+3000"));
    conf.set("coll.offload", std::string("nic"));
    conf.set("lossy.maxRetries", 8L);
    conf.set("anatomy.enabled", true);
    conf.set("congestion.enabled", true);
    conf.set("metrics.path",
             ::testing::TempDir() + "nifdy_metrics_agree.jsonl");
    conf.set("metrics.interval", 5000L);
    const ExperimentConfig cfg = experimentFromConfig(conf);
    conf.close();

    RunReport rep("test");
    {
        Experiment exp(cfg);
        CollectiveParams cp;
        cp.dataMsgs = 2;
        cp.arity = cfg.coll.arity;
        for (NodeId n = 0; n < exp.numNodes(); ++n)
            exp.setWorkload(n, std::make_unique<CollectiveWorkload>(
                                   exp.proc(n), exp.msg(n),
                                   exp.barrier(), exp.numNodes(), cp,
                                   cfg.seed));
        exp.runUntilDone(200000);
        exp.fillReport(rep);
    } // the final snapshot is written here

    std::string err;
    const JsonValue doc = parseJson(rep.json(false), &err);
    ASSERT_TRUE(err.empty()) << err;
    const JsonValue *metrics = doc.find("metrics");
    const JsonValue snapshot = lastSnapshot(cfg.metrics.path);
    const JsonValue *gauges = snapshot.find("gauges");
    ASSERT_TRUE(metrics && gauges);

    std::size_t shared = 0;
    for (const auto &[name, gauge] : gauges->members) {
        if (const JsonValue *metric = metrics->find(name)) {
            ++shared;
            EXPECT_EQ(gauge.asDouble(), metric->asDouble()) << name;
        }
    }
    EXPECT_EQ(shared, 21u);
    for (const char *name :
         {"nifdy.acks.sent", "lossy.drops", "coll.degraded",
          "node.restarts", "congestion.windows"}) {
        ASSERT_TRUE(gauges->find(name) && metrics->find(name)) << name;
        EXPECT_GT(metrics->find(name)->asDouble(), 0.0) << name;
    }

    const std::string sent = metrics->getString("run.packets.sent");
    const std::string delivered =
        metrics->getString("run.packets.delivered");
    EXPECT_EQ(gauges->find("nic.packets.sent")->asDouble(),
              metrics->find("run.packets.sent")->asDouble());
    EXPECT_EQ(gauges->find("nic.packets.delivered")->asDouble(),
              metrics->find("run.packets.delivered")->asDouble());
    const Table &stats = rep.tables().back();
    ASSERT_EQ(stats.rowsData().at(1).at(0), "packets sent / delivered");
    EXPECT_EQ(stats.rowsData().at(1).at(1), sent + " / " + delivered);
}

TEST(Telemetry, DistributionEmptyIsAllZeros)
{
    Distribution d("t.empty");
    EXPECT_EQ(d.count(), 0u);
    EXPECT_EQ(d.min(), 0u);
    EXPECT_EQ(d.max(), 0u);
    EXPECT_DOUBLE_EQ(d.mean(), 0.0);
    EXPECT_DOUBLE_EQ(d.percentile(0.0), 0.0);
    EXPECT_DOUBLE_EQ(d.percentile(0.5), 0.0);
    EXPECT_DOUBLE_EQ(d.percentile(1.0), 0.0);
}

TEST(Telemetry, DistributionSingleSampleIsEveryPercentile)
{
    Distribution d("t.single");
    d.sample(42);
    EXPECT_EQ(d.count(), 1u);
    EXPECT_EQ(d.min(), 42u);
    EXPECT_EQ(d.max(), 42u);
    EXPECT_DOUBLE_EQ(d.mean(), 42.0);
    // Clamped to the observed [min, max]: with one sample, every
    // quantile is that sample.
    EXPECT_DOUBLE_EQ(d.percentile(0.0), 42.0);
    EXPECT_DOUBLE_EQ(d.percentile(0.5), 42.0);
    EXPECT_DOUBLE_EQ(d.percentile(1.0), 42.0);
}

TEST(Telemetry, DistributionPercentileExtremesAndMonotonicity)
{
    Distribution d("t.ramp");
    for (std::uint64_t v = 1; v <= 100; ++v)
        d.sample(v);
    // p100 is exact (interpolation clamps to the observed max); p0
    // is a bucket estimate bounded below by the observed min.
    // Interior quantiles must stay ordered and in range.
    EXPECT_DOUBLE_EQ(d.percentile(1.0), 100.0);
    double p0 = d.percentile(0.0);
    double p50 = d.percentile(0.50);
    double p95 = d.percentile(0.95);
    double p99 = d.percentile(0.99);
    EXPECT_LE(1.0, p0);
    EXPECT_LE(p0, p50);
    EXPECT_LE(p50, p95);
    EXPECT_LE(p95, p99);
    EXPECT_LE(p99, 100.0);
}

TEST(Telemetry, DistributionMergeWithEmptyIsIdentity)
{
    Distribution d("t.full");
    d.sample(7);
    d.sample(9000);
    Distribution empty("t.none");
    d.merge(empty);
    EXPECT_EQ(d.count(), 2u);
    EXPECT_EQ(d.sum(), 9007u);
    EXPECT_EQ(d.min(), 7u);
    EXPECT_EQ(d.max(), 9000u);

    // The other direction: merging into an empty distribution is a
    // copy of the counts, min included (0 must not leak in as min).
    Distribution fresh("t.fresh");
    fresh.merge(d);
    EXPECT_EQ(fresh.count(), 2u);
    EXPECT_EQ(fresh.sum(), 9007u);
    EXPECT_EQ(fresh.min(), 7u);
    EXPECT_EQ(fresh.max(), 9000u);
    EXPECT_GE(fresh.percentile(0.0), 7.0);
    EXPECT_DOUBLE_EQ(fresh.percentile(1.0), 9000.0);
}

TEST(Telemetry, DistributionMergeCombinesExactly)
{
    Distribution a("t.a");
    Distribution b("t.b");
    for (std::uint64_t v : {1u, 2u, 3u})
        a.sample(v);
    for (std::uint64_t v : {100u, 200u})
        b.sample(v);
    a.merge(b);
    EXPECT_EQ(a.count(), 5u);
    EXPECT_EQ(a.sum(), 306u);
    EXPECT_EQ(a.min(), 1u);
    EXPECT_EQ(a.max(), 200u);
}

TEST(Telemetry, TimeSeriesEmissionOrdering)
{
    TimeSeries ts("t.series", 2, 100);
    EXPECT_TRUE(ts.due(0));
    std::size_t recorded = 0;
    for (Cycle now = 0; now < 1000; ++now) {
        if (!ts.due(now))
            continue;
        ts.record(now, {std::uint32_t(now), std::uint32_t(recorded)});
        ++recorded;
    }
    // One row per interval, stamped in strictly increasing time.
    EXPECT_EQ(ts.rows(), 10u);
    for (std::size_t i = 0; i < ts.rows(); ++i) {
        EXPECT_EQ(ts.row(i).size(), 2u);
        EXPECT_EQ(ts.rowTime(i), Cycle(i * 100));
        if (i > 0) {
            EXPECT_GT(ts.rowTime(i), ts.rowTime(i - 1));
        }
    }
    // due() stays false until the next interval boundary.
    EXPECT_FALSE(ts.due(999));
    EXPECT_TRUE(ts.due(1000));
}

} // namespace
} // namespace nifdy
