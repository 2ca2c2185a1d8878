/**
 * @file
 * Campaign engine robustness contract.
 *
 * The headline properties DESIGN.md section 11 promises, asserted
 * end to end against real worker subprocesses (the deterministically
 * misbehaving tools/chaos_worker.py):
 *
 *  - byte identity: a campaign interrupted by `kill -9` (injected
 *    via campaign.failpoint, which _exit(137)s at a journal append
 *    boundary) and finished with --resume writes an aggregate
 *    byte-identical to an uninterrupted run's;
 *  - exactly once: after a chaos soak (crashes, hangs, truncated
 *    reports, permanent failures) every job is aggregated exactly
 *    once or explicitly failed after the retry cap, and the engine
 *    exit code reflects the failures;
 *  - journal replay edge cases: a torn final line is discarded,
 *    duplicate completion records collapse, corruption before the
 *    final line is fatal, and --resume refuses a changed matrix.
 *
 * Plus unit coverage for the pieces: the strict JSON reader, spec
 * expansion determinism, and the journal append/replay round trip;
 * and nifdy_campaign's refusal of unknown engine knobs.
 */

#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "campaign/aggregate.hh"
#include "campaign/engine.hh"
#include "campaign/journal.hh"
#include "campaign/jsonin.hh"
#include "sim/log.hh"
#include "sim/report.hh"

namespace nifdy
{
namespace
{

//===------------------------------------------------------------===//
// Helpers
//===------------------------------------------------------------===//

std::string
makeTempDir()
{
    char tmpl[] = "/tmp/nifdy-campaign-XXXXXX";
    const char *dir = ::mkdtemp(tmpl);
    EXPECT_NE(dir, nullptr);
    return dir ? dir : "";
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(static_cast<bool>(in)) << path;
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

void
appendRaw(const std::string &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::app);
    out << bytes;
}

bool
havePython3()
{
    return std::system("python3 -c pass >/dev/null 2>&1") == 0;
}

std::vector<std::string>
chaosWorkerCmd()
{
    return {"python3", std::string(NIFDY_TOOLS_DIR) +
                           "/chaos_worker.py"};
}

/** A small spec: fixed chaos knobs, a 3x2 matrix, two seeds. */
CampaignSpec
chaosSpec(const std::string &extraFixed = "")
{
    std::string fixed = R"("chaos.seed": 7)";
    if (!extraFixed.empty())
        fixed += ", " + extraFixed;
    return CampaignSpec::parse(
        "{\"schema\": \"campaign-spec-1\", \"name\": \"t\", "
        "\"fixed\": {" + fixed + "}, "
        "\"matrix\": {\"alpha\": [\"1\", \"2\", \"3\"], "
        "\"beta\": [\"x\", \"y\"]}, \"seeds\": [1, 2]}");
}

/** Fast-retry options pointed at the chaos worker. */
CampaignOptions
chaosOptions(const std::string &dir)
{
    CampaignOptions o;
    o.dir = dir;
    o.workerCmd = chaosWorkerCmd();
    o.workers = 4;
    o.backoffBaseMs = 2;
    o.backoffMaxMs = 10;
    o.wallTimeoutMs = 20000;
    o.pollMs = 1;
    return o;
}

/** A minimal valid nifdy-report-1 document. */
std::string
minimalReport()
{
    return "{\"schema\":\"nifdy-report-1\",\"tool\":\"t\","
           "\"config\":{},\"metrics\":{\"run.goodput\":0.5}}\n";
}

class QuietGuard
{
  public:
    QuietGuard() { setQuiet(true); }
    ~QuietGuard() { setQuiet(false); }
};

//===------------------------------------------------------------===//
// JSON reader
//===------------------------------------------------------------===//

TEST(CampaignJson, ParsesScalarsAndNesting)
{
    std::string err;
    JsonValue v = parseJson(
        R"({"a": 1.25e3, "b": [true, null, "s\u00e9\n"], "c": {}})",
        &err);
    ASSERT_EQ(err, "");
    ASSERT_TRUE(v.isObject());
    EXPECT_EQ(v.find("a")->number, "1.25e3"); // raw token kept
    EXPECT_DOUBLE_EQ(v.find("a")->asDouble(), 1250.0);
    const JsonValue *b = v.find("b");
    ASSERT_TRUE(b && b->isArray());
    ASSERT_EQ(b->items.size(), 3u);
    EXPECT_TRUE(b->items[0].boolean);
    EXPECT_TRUE(b->items[1].isNull());
    EXPECT_EQ(b->items[2].text, "s\xc3\xa9\n");
    EXPECT_TRUE(v.find("c")->isObject());
    EXPECT_EQ(v.find("missing"), nullptr);
}

TEST(CampaignJson, RejectsDamage)
{
    const char *bad[] = {
        "",
        "{",
        "{\"a\": 1,}",
        "{\"a\": 1} trailing",
        "{\"a\": 01}",
        "[1, 2",
        "\"unterminated",
        "{\"a\": nul}",
        "{\"lone\": \"\\ud800\"}",
    };
    for (const char *text : bad) {
        std::string err;
        JsonValue v = parseJson(text, &err);
        EXPECT_NE(err, "") << "accepted: " << text;
        EXPECT_TRUE(v.isNull());
    }
}

TEST(CampaignJson, RenderRoundTripsBytes)
{
    // Member order and number tokens survive a parse+render cycle,
    // which is what lets the aggregate splice worker metrics
    // verbatim.
    std::string doc =
        R"({"z":1e-07,"a":[1,2.50,{"k":"v"}],"m":true})";
    std::string err;
    JsonValue v = parseJson(doc, &err);
    ASSERT_EQ(err, "");
    EXPECT_EQ(v.render(), doc);
}

//===------------------------------------------------------------===//
// Spec expansion
//===------------------------------------------------------------===//

TEST(CampaignSpecTest, ExpandIsDeterministic)
{
    CampaignSpec spec = chaosSpec();
    std::vector<CampaignJob> jobs = spec.expand();
    ASSERT_EQ(jobs.size(), 12u); // 3 alpha x 2 beta x 2 seeds
    // Sorted matrix keys, rightmost fastest, seeds innermost.
    EXPECT_EQ(jobs[0].knobs.at("alpha"), "1");
    EXPECT_EQ(jobs[0].knobs.at("beta"), "x");
    EXPECT_EQ(jobs[0].knobs.at("seed"), "1");
    EXPECT_EQ(jobs[1].knobs.at("seed"), "2");
    EXPECT_EQ(jobs[2].knobs.at("beta"), "y");
    EXPECT_EQ(jobs[4].knobs.at("alpha"), "2");
    // Hashes are stable and unique.
    EXPECT_EQ(jobs[0].hash, fnv1a64(jobs[0].canonical()));
    for (std::size_t i = 1; i < jobs.size(); ++i)
        EXPECT_NE(jobs[i].hash, jobs[0].hash);
    // Same spec, same hash; different matrix, different hash.
    EXPECT_EQ(campaignSpecHash(jobs),
              campaignSpecHash(chaosSpec().expand()));
    CampaignSpec other = chaosSpec();
    other.matrix[0].second.push_back("4");
    EXPECT_NE(campaignSpecHash(jobs),
              campaignSpecHash(other.expand()));
}

TEST(CampaignSpecTest, EmptyMatrixSweepsSeedsOnly)
{
    CampaignSpec spec = CampaignSpec::parse(
        R"({"schema": "campaign-spec-1", "fixed": {"a": "1"},
            "matrix": {}, "seeds": [1, 2, 3]})");
    std::vector<CampaignJob> jobs = spec.expand();
    ASSERT_EQ(jobs.size(), 3u);
    EXPECT_EQ(jobs[2].knobs.at("seed"), "3");
}

TEST(CampaignSpecTest, JobTimeoutAddsWorkerGuard)
{
    std::vector<CampaignJob> jobs = chaosSpec().expand(5000);
    EXPECT_EQ(jobs[0].knobs.at("timeout"), "5000");
    EXPECT_NE(jobs[0].hash, chaosSpec().expand()[0].hash);
}

TEST(CampaignSpecTest, RejectsMalformedSpecs)
{
    EXPECT_THROW(CampaignSpec::parse("{}"), std::runtime_error);
    EXPECT_THROW(
        CampaignSpec::parse(
            R"({"schema": "campaign-spec-1",
                "matrix": {"a": []}, "seeds": [1]})"),
        std::runtime_error); // empty matrix value list
    EXPECT_THROW(
        CampaignSpec::parse(
            R"({"schema": "campaign-spec-1",
                "matrix": {"a": [1]}, "seeds": []})"),
        std::runtime_error); // empty seeds
    EXPECT_THROW(
        CampaignSpec::parse(
            R"({"schema": "campaign-spec-1",
                "fixed": {"seed": 1},
                "matrix": {"a": [1]}, "seeds": [1]})"),
        std::runtime_error); // seed comes from the seeds array
    EXPECT_THROW(
        CampaignSpec::parse(
            R"({"schema": "campaign-spec-1",
                "fixed": {"a": 1},
                "matrix": {"a": [1]}, "seeds": [1]})"),
        std::runtime_error); // fixed and swept
}

//===------------------------------------------------------------===//
// Journal
//===------------------------------------------------------------===//

TEST(CampaignJournal, AppendReplayRoundTrip)
{
    std::string dir = makeTempDir();
    std::string path = dir + "/j.jsonl";
    {
        Journal j(path);
        j.append(R"({"ev":"begin","jobs":3})");
        j.append(R"({"ev":"ok","job":"abc","n":42})");
        EXPECT_EQ(j.appends(), 2);
    }
    bool torn = true;
    std::vector<JournalRecord> recs = Journal::replay(path, &torn);
    EXPECT_FALSE(torn);
    ASSERT_EQ(recs.size(), 2u);
    EXPECT_EQ(recs[0].ev(), "begin");
    EXPECT_EQ(recs[0].getInt("jobs", -1), 3);
    EXPECT_EQ(recs[1].get("job"), "abc");
    EXPECT_EQ(recs[1].getInt("n", -1), 42);
    EXPECT_EQ(recs[1].get("missing", "fb"), "fb");
}

TEST(CampaignJournal, MissingFileIsEmpty)
{
    EXPECT_TRUE(Journal::replay("/nonexistent/j.jsonl").empty());
}

TEST(CampaignJournal, TornFinalLineIsDiscarded)
{
    QuietGuard q;
    std::string path = makeTempDir() + "/j.jsonl";
    {
        Journal j(path);
        j.append(R"({"ev":"begin"})");
        j.append(R"({"ev":"ok","job":"abc"})");
    }
    // The append a kill -9 interrupted: no trailing newline.
    appendRaw(path, R"({"ev":"ok","job":"tr)");
    bool torn = false;
    std::vector<JournalRecord> recs = Journal::replay(path, &torn);
    EXPECT_TRUE(torn);
    ASSERT_EQ(recs.size(), 2u);
    EXPECT_EQ(recs[1].get("job"), "abc");
}

TEST(CampaignJournal, CorruptionBeforeFinalLineIsFatal)
{
    std::string path = makeTempDir() + "/j.jsonl";
    {
        Journal j(path);
        j.append(R"({"ev":"begin"})");
    }
    appendRaw(path, "not json at all\n");
    appendRaw(path, R"({"ev":"ok","job":"abc"})" "\n");
    EXPECT_THROW(Journal::replay(path), std::runtime_error);
}

TEST(CampaignJournal, FailpointExitsAtAppendBoundary)
{
    std::string path = makeTempDir() + "/j.jsonl";
    pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        Journal j(path, 2);
        j.append(R"({"ev":"a"})");
        j.append(R"({"ev":"b"})"); // _exit(137) fires here
        j.append(R"({"ev":"c"})"); // never reached
        ::_exit(0);
    }
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 137);
    std::vector<JournalRecord> recs = Journal::replay(path);
    ASSERT_EQ(recs.size(), 2u); // the append itself completed
    EXPECT_EQ(recs[1].ev(), "b");
}

//===------------------------------------------------------------===//
// Engine end-to-end (real chaos_worker.py subprocesses)
//===------------------------------------------------------------===//

#define REQUIRE_PYTHON3()                                            \
    do {                                                             \
        if (!havePython3())                                          \
            GTEST_SKIP() << "python3 not available";                 \
    } while (0)

TEST(CampaignEngineTest, WellBehavedSweepIsReproducible)
{
    REQUIRE_PYTHON3();
    QuietGuard q;
    CampaignSpec spec = chaosSpec(); // no failure probabilities
    std::string dirA = makeTempDir(), dirB = makeTempDir();

    CampaignEngine engA(spec, chaosOptions(dirA));
    EXPECT_EQ(engA.execute(), CampaignEngine::exitOk);
    CampaignEngine engB(spec, chaosOptions(dirB));
    EXPECT_EQ(engB.execute(), CampaignEngine::exitOk);

    std::string aggA = readFile(engA.aggregatePath());
    EXPECT_EQ(aggA, readFile(engB.aggregatePath()));

    // Every job aggregated exactly once, in index order.
    std::string err;
    JsonValue agg = parseJson(aggA, &err);
    ASSERT_EQ(err, "");
    EXPECT_EQ(agg.find("jobs")->asInt(), 12);
    EXPECT_EQ(agg.find("failed")->asInt(), 0);
    const JsonValue *results = agg.find("results");
    ASSERT_EQ(results->items.size(), 12u);
    for (std::size_t i = 0; i < results->items.size(); ++i) {
        EXPECT_EQ(results->items[i].find("index")->asInt(),
                  static_cast<long>(i));
        EXPECT_EQ(results->items[i].getString("status"), "ok");
        EXPECT_NE(results->items[i].find("metrics"), nullptr);
    }
}

TEST(CampaignEngineTest, ChaosSoakAggregatesEveryJobExactlyOnce)
{
    REQUIRE_PYTHON3();
    QuietGuard q;
    // Heavy per-attempt chaos plus one matrix point that always
    // fails; retries must absorb the former and the retry cap must
    // contain the latter.
    CampaignSpec spec = CampaignSpec::parse(
        R"({"schema": "campaign-spec-1", "name": "soak",
            "fixed": {"chaos.seed": 11, "chaos.crashProb": 0.3,
                      "chaos.truncProb": 0.2},
            "matrix": {"alpha": ["1", "2", "3"],
                       "chaos.alwaysFail": ["false", "true"]},
            "seeds": [1, 2]})");
    std::string dir = makeTempDir();
    CampaignEngine eng(spec, chaosOptions(dir));
    EXPECT_EQ(eng.execute(), CampaignEngine::exitDegraded);

    int done = 0, failed = 0;
    for (std::size_t i = 0; i < eng.jobs().size(); ++i) {
        const JobOutcome &oc = eng.outcomes()[i];
        // Terminal, exactly one way.
        ASSERT_NE(oc.done, oc.failed) << "job " << i;
        if (oc.done) {
            ++done;
            EXPECT_EQ(validateWorkerReport(oc.reportPath, nullptr),
                      "");
        } else {
            ++failed;
            // retryMax=3 means exactly 4 attempts were burned.
            EXPECT_EQ(oc.fails, 4);
            EXPECT_EQ(oc.lastKind, "crash");
        }
        bool alwaysFail =
            eng.jobs()[i].knobs.at("chaos.alwaysFail") == "true";
        EXPECT_EQ(oc.failed, alwaysFail) << "job " << i;
    }
    EXPECT_EQ(done, 6);
    EXPECT_EQ(failed, 6);

    std::string err;
    JsonValue agg = parseJson(readFile(eng.aggregatePath()), &err);
    ASSERT_EQ(err, "");
    EXPECT_EQ(agg.find("jobs")->asInt(), 12);
    EXPECT_EQ(agg.find("failed")->asInt(), 6);
    ASSERT_EQ(agg.find("results")->items.size(), 12u);
}

TEST(CampaignEngineTest, HangingWorkerTimesOutAndFails)
{
    REQUIRE_PYTHON3();
    QuietGuard q;
    CampaignSpec spec = CampaignSpec::parse(
        R"({"schema": "campaign-spec-1", "name": "hang",
            "fixed": {"chaos.hangProb": "1",
                      "chaos.ignoreTerm": "true"},
            "matrix": {"alpha": ["1"]}, "seeds": [1]})");
    CampaignOptions opts = chaosOptions(makeTempDir());
    opts.retryMax = 0;
    opts.wallTimeoutMs = 1500; // > python startup, << the hang
    opts.termGraceMs = 300;    // SIGTERM is ignored; SIGKILL lands
    CampaignEngine eng(spec, opts);
    EXPECT_EQ(eng.execute(), CampaignEngine::exitDegraded);
    ASSERT_TRUE(eng.outcomes()[0].failed);
    EXPECT_EQ(eng.outcomes()[0].lastKind, "timeout");
}

TEST(CampaignEngineTest, KillNineThenResumeIsByteIdentical)
{
    REQUIRE_PYTHON3();
    QuietGuard q;
    CampaignSpec spec = chaosSpec(
        R"("chaos.crashProb": 0.3, "chaos.truncProb": 0.2)");

    // Reference: uninterrupted.
    std::string refDir = makeTempDir();
    CampaignEngine ref(spec, chaosOptions(refDir));
    ref.execute();
    std::string refAgg = readFile(ref.aggregatePath());

    // Victim: killed at a mid-campaign journal append (failpoint
    // _exit(137)s, indistinguishable from kill -9), then resumed.
    std::string dir = makeTempDir();
    pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        CampaignOptions opts = chaosOptions(dir);
        opts.failpoint = 9;
        CampaignEngine victim(spec, opts);
        victim.execute(); // _exit(137) fires inside
        ::_exit(42);      // only reached if the failpoint did not
    }
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status));
    ASSERT_EQ(WEXITSTATUS(status), 137);

    CampaignOptions opts = chaosOptions(dir);
    opts.resume = true;
    CampaignEngine resumed(spec, opts);
    resumed.execute();
    EXPECT_EQ(readFile(resumed.aggregatePath()), refAgg);
}

TEST(CampaignEngineTest, ResumeRefusesAChangedMatrix)
{
    REQUIRE_PYTHON3();
    QuietGuard q;
    std::string dir = makeTempDir();
    CampaignEngine eng(chaosSpec(), chaosOptions(dir));
    eng.execute();

    CampaignSpec changed = chaosSpec();
    changed.matrix[0].second.push_back("4");
    CampaignOptions opts = chaosOptions(dir);
    opts.resume = true;
    CampaignEngine other(changed, opts);
    EXPECT_THROW(other.execute(), std::runtime_error);
}

TEST(CampaignEngineTest, FreshRunRefusesAnOccupiedDirectory)
{
    REQUIRE_PYTHON3();
    QuietGuard q;
    std::string dir = makeTempDir();
    CampaignEngine eng(chaosSpec(), chaosOptions(dir));
    eng.execute();
    // Same dir without --resume must not clobber the journal.
    CampaignEngine again(chaosSpec(), chaosOptions(dir));
    EXPECT_THROW(again.execute(), std::runtime_error);
}

TEST(CampaignEngineTest, ReplayCollapsesDuplicateCompletions)
{
    REQUIRE_PYTHON3();
    QuietGuard q;
    // Handcraft a journal whose first job carries duplicate ok
    // records (a crash can land between the append and the engine
    // acting on it; replay must collapse them, not double-count).
    CampaignSpec spec = chaosSpec();
    std::string dir = makeTempDir();
    ASSERT_EQ(::mkdir((dir + "/reports").c_str(), 0755), 0);
    CampaignOptions opts = chaosOptions(dir);
    CampaignEngine probe(spec, opts); // for jobs/spec hash only
    const CampaignJob &job0 = probe.jobs()[0];
    std::string rel = "reports/job-" + job0.hex() + "-a0.json";
    writeFileAtomic(dir + "/" + rel, minimalReport());
    {
        Journal j(dir + "/journal.jsonl");
        j.append(
            R"({"ev":"begin","schema":"campaign-journal-1","spec":")" +
            hex16(probe.specHash()) + R"(","jobs":12})");
        std::string ok = R"({"ev":"ok","job":")" + job0.hex() +
                         R"(","idx":0,"report":")" + rel + R"("})";
        j.append(ok);
        j.append(ok); // duplicate completion
        j.append(R"({"ev":"fail","job":")" + job0.hex() +
                 R"(","idx":0,"attempt":"1","kind":"crash"})");
    }
    opts.resume = true;
    CampaignEngine eng(spec, opts);
    EXPECT_EQ(eng.execute(), CampaignEngine::exitOk);
    // The duplicate ok collapsed and the post-ok fail was ignored.
    EXPECT_TRUE(eng.outcomes()[0].done);
    EXPECT_EQ(eng.outcomes()[0].fails, 0);
    std::string err;
    JsonValue agg = parseJson(readFile(eng.aggregatePath()), &err);
    ASSERT_EQ(err, "");
    EXPECT_EQ(agg.find("jobs")->asInt(), 12);
    EXPECT_EQ(agg.find("failed")->asInt(), 0);
}

//===------------------------------------------------------------===//
// The nifdy_campaign command line
//===------------------------------------------------------------===//

TEST(CampaignCli, UnknownEngineKnobsExitOneNamingThem)
{
    // A typo in the spec's campaign{} block and one on the command
    // line: both reach nifdy_campaign's closing check, which refuses
    // the invocation (exit 1) before any job runs.
    std::string dir = makeTempDir();
    std::ofstream(dir + "/spec.json")
        << R"({"schema": "campaign-spec-1", "name": "typo",
               "matrix": {"alpha": ["1"]}, "seeds": [1],
               "campaign": {"campaign.wrokers": 2}})";
    std::string cmd = std::string(NIFDY_CAMPAIGN_BIN) + " --spec " +
                      dir + "/spec.json --dir " + dir +
                      "/run campaign.retrymax=1 2> " + dir + "/err.txt";
    int status = std::system(cmd.c_str());
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 1);
    std::string err = readFile(dir + "/err.txt");
    EXPECT_NE(err.find("'campaign.wrokers' (did you mean "
                       "'campaign.workers'?)"),
              std::string::npos)
        << err;
    EXPECT_NE(err.find("'campaign.retrymax' (did you mean "
                       "'campaign.retryMax'?)"),
              std::string::npos)
        << err;
    struct stat st;
    EXPECT_NE(::stat((dir + "/run").c_str(), &st), 0)
        << "the refused campaign created its directory";
}

//===------------------------------------------------------------===//
// Atomic report emission (satellite of the same contract)
//===------------------------------------------------------------===//

TEST(CampaignReport, WriteFileAtomicLeavesNoTemporary)
{
    std::string dir = makeTempDir();
    std::string path = dir + "/out.json";
    writeFileAtomic(path, "first\n");
    writeFileAtomic(path, "second\n");
    EXPECT_EQ(readFile(path), "second\n");
    // No *.tmp.* litter left next to the destination.
    std::string tmp =
        path + ".tmp." + std::to_string(static_cast<long>(::getpid()));
    struct stat st;
    EXPECT_NE(::stat(tmp.c_str(), &st), 0);
}

TEST(CampaignReport, RunReportJsonIsAtomicAndValid)
{
    std::string dir = makeTempDir();
    RunReport rep("test-tool");
    rep.addMetric("run.goodput", 0.5);
    rep.echoConfig("k", "v");
    std::string path = dir + "/report.json";
    rep.writeJson(path);
    JsonValue v;
    EXPECT_EQ(validateWorkerReport(path, &v), "");
    EXPECT_EQ(v.getString("tool"), "test-tool");
}

} // namespace
} // namespace nifdy
