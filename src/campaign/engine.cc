#include "campaign/engine.hh"

#include <sys/stat.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "campaign/aggregate.hh"
#include "campaign/journal.hh"
#include "campaign/jsonin.hh"
#include "campaign/supervisor.hh"
#include "sim/config.hh"
#include "sim/json.hh"
#include "sim/log.hh"
#include "sim/report.hh"
#include "sim/rng.hh"

namespace nifdy
{

namespace
{

/** Campaign wall-clock: milliseconds on a monotonic clock. The
 * engine supervises real subprocesses, so real time is its cycle
 * counter; nothing simulated depends on it. */
double
monotonicMs()
{
    // nifdy:wallclock-ok(supervises real subprocesses; nothing simulated keys off this)
    auto now = std::chrono::steady_clock::now();
    return std::chrono::duration<double, std::milli>(
               now.time_since_epoch())
        .count();
}

void
sleepMs(double ms)
{
    if (ms <= 0)
        return;
    struct timespec ts;
    ts.tv_sec = static_cast<time_t>(ms / 1000.0);
    ts.tv_nsec = static_cast<long>(
        (ms - static_cast<double>(ts.tv_sec) * 1000.0) * 1e6);
    ::nanosleep(&ts, nullptr);
}

void
ensureDir(const std::string &path)
{
    if (::mkdir(path.c_str(), 0755) == 0 || errno == EEXIST)
        return;
    fatal("cannot create campaign directory %s", path.c_str());
}

bool
fileExists(const std::string &path)
{
    struct stat st;
    return ::stat(path.c_str(), &st) == 0;
}

} // namespace

std::uint64_t
fnv1a64(std::string_view s)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (char c : s) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ull;
    }
    return h;
}

std::string
hex16(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

std::string
CampaignJob::canonical() const
{
    std::string out;
    for (const auto &kv : knobs) {
        out += kv.first;
        out.push_back('=');
        out += kv.second;
        out.push_back('\n');
    }
    return out;
}

namespace
{

/** Scalar JSON value -> knob string (numbers keep their token). */
std::string
knobValue(const JsonValue &v, const std::string &where)
{
    switch (v.kind) {
    case JsonValue::Kind::String:
        return v.text;
    case JsonValue::Kind::Number:
        return v.number;
    case JsonValue::Kind::Bool:
        return v.boolean ? "true" : "false";
    default:
        fatal("campaign spec: %s must be a scalar", where.c_str());
    }
}

} // namespace

CampaignSpec
CampaignSpec::parse(const std::string &text)
{
    std::string err;
    JsonValue doc = parseJson(text, &err);
    fatal_if(!err.empty(), "campaign spec does not parse: %s",
             err.c_str());
    fatal_if(!doc.isObject(), "campaign spec is not a JSON object");
    fatal_if(doc.getString("schema") != campaignSpecSchema,
             "campaign spec schema '%s' is not %s",
             doc.getString("schema").c_str(), campaignSpecSchema);

    CampaignSpec spec;
    spec.name = doc.getString("name", "campaign");

    if (const JsonValue *fixed = doc.find("fixed")) {
        fatal_if(!fixed->isObject(),
                 "campaign spec: fixed must be an object");
        for (const auto &kv : fixed->members)
            spec.fixed[kv.first] =
                knobValue(kv.second, "fixed." + kv.first);
    }

    const JsonValue *matrix = doc.find("matrix");
    fatal_if(!matrix || !matrix->isObject(),
             "campaign spec: matrix object is required");
    for (const auto &kv : matrix->members) {
        fatal_if(!kv.second.isArray() || kv.second.items.empty(),
                 "campaign spec: matrix.%s must be a non-empty "
                 "array",
                 kv.first.c_str());
        fatal_if(spec.fixed.count(kv.first),
                 "campaign spec: %s is both fixed and swept",
                 kv.first.c_str());
        std::vector<std::string> values;
        for (const JsonValue &v : kv.second.items)
            values.push_back(knobValue(v, "matrix." + kv.first));
        spec.matrix.emplace_back(kv.first, std::move(values));
    }
    std::sort(spec.matrix.begin(), spec.matrix.end(),
              [](const auto &a, const auto &b) {
                  return a.first < b.first;
              });
    for (std::size_t i = 1; i < spec.matrix.size(); ++i)
        fatal_if(spec.matrix[i].first == spec.matrix[i - 1].first,
                 "campaign spec: duplicate matrix key %s",
                 spec.matrix[i].first.c_str());

    const JsonValue *seeds = doc.find("seeds");
    fatal_if(!seeds || !seeds->isArray() || seeds->items.empty(),
             "campaign spec: non-empty seeds array is required");
    for (const JsonValue &v : seeds->items)
        spec.seeds.push_back(knobValue(v, "seeds[]"));
    fatal_if(spec.fixed.count("seed") ||
                 std::any_of(spec.matrix.begin(), spec.matrix.end(),
                             [](const auto &kv) {
                                 return kv.first == "seed";
                             }),
             "campaign spec: seed is supplied by the seeds array, "
             "not fixed/matrix");

    if (const JsonValue *eng = doc.find("campaign")) {
        fatal_if(!eng->isObject(),
                 "campaign spec: campaign must be an object");
        for (const auto &kv : eng->members) {
            fatal_if(kv.first.rfind("campaign.", 0) != 0,
                     "campaign spec: campaign.* knob expected, got "
                     "%s",
                     kv.first.c_str());
            spec.engineKnobs[kv.first] =
                knobValue(kv.second, kv.first);
        }
    }
    return spec;
}

CampaignSpec
CampaignSpec::parseFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    fatal_if(!in, "cannot open campaign spec %s", path.c_str());
    std::ostringstream buf;
    buf << in.rdbuf();
    return parse(buf.str());
}

std::vector<CampaignJob>
CampaignSpec::expand(long jobTimeout) const
{
    std::vector<CampaignJob> jobs;
    std::vector<std::size_t> odo(matrix.size(), 0);
    while (true) {
        for (const std::string &seed : seeds) {
            CampaignJob job;
            job.index = static_cast<int>(jobs.size());
            job.knobs = fixed;
            for (std::size_t k = 0; k < matrix.size(); ++k)
                job.knobs[matrix[k].first] = matrix[k].second[odo[k]];
            job.knobs["seed"] = seed;
            if (jobTimeout > 0)
                job.knobs["timeout"] = std::to_string(jobTimeout);
            job.hash = fnv1a64(job.canonical());
            jobs.push_back(std::move(job));
        }
        // Odometer over the sorted matrix keys, rightmost fastest.
        std::size_t k = matrix.size();
        while (k > 0) {
            --k;
            if (++odo[k] < matrix[k].second.size())
                break;
            odo[k] = 0;
            if (k == 0)
                return jobs;
        }
        if (matrix.empty())
            return jobs;
    }
}

std::uint64_t
campaignSpecHash(const std::vector<CampaignJob> &jobs)
{
    std::string all;
    for (const CampaignJob &job : jobs) {
        all += job.canonical();
        all.push_back('\x1f');
    }
    return fnv1a64(all);
}

void
CampaignOptions::validate() const
{
    fatal_if(dir.empty(), "campaign: --dir is required");
    fatal_if(workerCmd.empty(), "campaign: worker command is empty");
    fatal_if(workers < 1, "campaign.workers must be >= 1");
    fatal_if(retryMax < 0, "campaign.retryMax must be >= 0");
    fatal_if(backoffBaseMs < 0, "campaign.backoffBaseMs must be >= 0");
    fatal_if(backoffFactor < 1,
             "campaign.backoffFactor must be >= 1");
    fatal_if(backoffMaxMs < backoffBaseMs,
             "campaign.backoffMaxMs must be >= campaign.backoffBaseMs");
    fatal_if(jitterFrac < 0 || jitterFrac >= 1,
             "campaign.jitterFrac must be in [0, 1)");
    fatal_if(wallTimeoutMs <= 0,
             "campaign.wallTimeoutMs must be > 0");
    fatal_if(termGraceMs <= 0, "campaign.termGraceMs must be > 0");
    fatal_if(jobTimeout < 0, "campaign.jobTimeout must be >= 0");
    fatal_if(pollMs <= 0, "campaign.pollMs must be > 0");
    fatal_if(failpoint < 0, "campaign.failpoint must be >= 0");
}

CampaignOptions
campaignFromConfig(const Config &conf)
{
    CampaignOptions o;
    conf.knob("campaign.workers", o.workers,
              "parallel worker subprocesses the engine fans jobs across");
    conf.knob("campaign.retryMax", o.retryMax,
              "retries per job after the first failure before it is "
              "marked failed");
    conf.knob("campaign.backoffBaseMs", o.backoffBaseMs,
              "retry backoff after the first failure, milliseconds");
    conf.knob("campaign.backoffFactor", o.backoffFactor,
              "backoff multiplier per further failure (exponential)");
    conf.knob("campaign.backoffMaxMs", o.backoffMaxMs,
              "backoff ceiling, milliseconds");
    conf.knob("campaign.jitterFrac", o.jitterFrac,
              "seeded +/- jitter fraction applied to each backoff, "
              "[0, 1)");
    conf.knob("campaign.wallTimeoutMs", o.wallTimeoutMs,
              "per-attempt wall-clock budget; SIGTERM at the deadline, "
              "SIGKILL one grace period later");
    conf.knob("campaign.termGraceMs", o.termGraceMs,
              "SIGTERM -> SIGKILL escalation delay, milliseconds");
    conf.knob("campaign.jobTimeout", o.jobTimeout,
              "forwarded to every worker as its timeout=CYCLES "
              "self-guard (0 = off)");
    conf.knob("campaign.pollMs", o.pollMs,
              "supervisor poll interval while workers run, "
              "milliseconds");
    conf.knob("campaign.seed", o.seed,
              "engine RNG seed (backoff jitter)");
    conf.knob("campaign.failpoint", o.failpoint,
              "crash-injection test hook: _exit(137) after N journal "
              "appends (0 = off)");
    return o;
}

CampaignEngine::CampaignEngine(CampaignSpec spec, CampaignOptions opts)
    : spec_(std::move(spec)), opts_(std::move(opts))
{
    opts_.validate();
    jobs_ = spec_.expand(opts_.jobTimeout);
    fatal_if(jobs_.empty(), "campaign spec expands to zero jobs");
    specHash_ = campaignSpecHash(jobs_);
    outcomes_.assign(jobs_.size(), JobOutcome{});
}

std::string
CampaignEngine::aggregatePath() const
{
    return opts_.dir + "/aggregate.json";
}

std::string
CampaignEngine::journalPath() const
{
    return opts_.dir + "/journal.jsonl";
}

std::string
CampaignEngine::reportPath(const CampaignJob &job, int attempt) const
{
    return opts_.dir + "/reports/job-" + job.hex() + "-a" +
           std::to_string(attempt) + ".json";
}

std::string
CampaignEngine::logPath(const CampaignJob &job, int attempt) const
{
    return opts_.dir + "/logs/job-" + job.hex() + "-a" +
           std::to_string(attempt) + ".log";
}

double
CampaignEngine::backoffMs(const CampaignJob &job, int fails) const
{
    double ms = opts_.backoffBaseMs;
    for (int i = 1; i < fails && ms < opts_.backoffMaxMs; ++i)
        ms *= opts_.backoffFactor;
    if (ms > opts_.backoffMaxMs)
        ms = opts_.backoffMaxMs;
    // Jitter is seeded by (campaign seed, job, failure count), so a
    // resumed campaign draws the same backoff it would have drawn.
    Rng rng(opts_.seed,
            job.hash ^ static_cast<std::uint64_t>(fails));
    return ms * (1.0 + opts_.jitterFrac * (2.0 * rng.nextDouble() - 1.0));
}

void
CampaignEngine::replayJournal()
{
    bool torn = false;
    std::vector<JournalRecord> records =
        Journal::replay(journalPath(), &torn);
    fatal_if(records.empty(),
             "--resume: campaign journal %s has no intact records",
             journalPath().c_str());

    std::map<std::string, int> byHex;
    for (const CampaignJob &job : jobs_)
        byHex[job.hex()] = job.index;

    bool sawBegin = false;
    for (const JournalRecord &rec : records) {
        const std::string &ev = rec.ev();
        if (ev == "begin") {
            fatal_if(rec.get("schema") != journalSchema,
                     "campaign journal schema '%s' is not %s",
                     rec.get("schema").c_str(), journalSchema);
            fatal_if(rec.get("spec") != hex16(specHash_),
                     "--resume refused: the spec's expanded job "
                     "list (hash %s) does not match the journal's "
                     "(hash %s); a campaign can only resume the "
                     "exact matrix it started",
                     hex16(specHash_).c_str(),
                     rec.get("spec").c_str());
            fatal_if(rec.getInt("jobs", -1) !=
                         static_cast<long>(jobs_.size()),
                     "campaign journal job count mismatch");
            sawBegin = true;
            continue;
        }
        fatal_if(!sawBegin,
                 "campaign journal %s does not start with a begin "
                 "record",
                 journalPath().c_str());
        if (ev == "start")
            continue; // attempts are derived from fail records
        auto it = byHex.find(rec.get("job"));
        fatal_if(it == byHex.end(),
                 "campaign journal references unknown job %s",
                 rec.get("job").c_str());
        JobOutcome &oc = outcomes_[static_cast<std::size_t>(
            it->second)];
        if (ev == "ok") {
            if (oc.done)
                continue; // idempotent replay: duplicate completion
            if (oc.failed) {
                warn("journal: job %s has both ok and dead records; "
                     "keeping the first (dead)",
                     rec.get("job").c_str());
                continue;
            }
            std::string path = opts_.dir + "/" + rec.get("report");
            std::string err = validateWorkerReport(path, nullptr);
            if (!err.empty()) {
                // The journal says done but the report is gone or
                // damaged: re-run the job rather than wedge.
                warn("journal: job %s is recorded ok but its %s; "
                     "re-running",
                     rec.get("job").c_str(), err.c_str());
                continue;
            }
            oc.done = true;
            oc.reportPath = path;
        } else if (ev == "fail") {
            if (oc.done || oc.failed)
                continue; // idempotent replay
            ++oc.fails;
            oc.lastKind = rec.get("kind");
        } else if (ev == "dead") {
            if (oc.done)
                continue;
            oc.failed = true;
        } else {
            warn("journal: ignoring unknown record ev=%s",
                 ev.c_str());
        }
    }
}

int
CampaignEngine::execute()
{
    ensureDir(opts_.dir);
    ensureDir(opts_.dir + "/reports");
    ensureDir(opts_.dir + "/logs");

    if (opts_.resume) {
        fatal_if(!fileExists(journalPath()),
                 "--resume: no campaign journal at %s",
                 journalPath().c_str());
        replayJournal();
    } else {
        fatal_if(fileExists(journalPath()),
                 "campaign directory %s already holds a journal; "
                 "use --resume to continue it or pick a fresh "
                 "directory",
                 opts_.dir.c_str());
    }

    Journal journal(journalPath(), opts_.failpoint);
    {
        JsonWriter w;
        w.beginObject();
        w.field("ev", "begin");
        w.field("schema", journalSchema);
        w.field("spec", hex16(specHash_));
        w.field("name", spec_.name);
        w.field("jobs", static_cast<std::uint64_t>(jobs_.size()));
        w.field("resume", opts_.resume);
        w.endObject();
        journal.append(w.take());
    }

    Supervisor sup(opts_.termGraceMs);
    std::vector<bool> running(jobs_.size(), false);
    std::vector<double> notBefore(jobs_.size(), 0.0);

    auto terminal = [&](std::size_t i) {
        return outcomes_[i].done || outcomes_[i].failed;
    };

    auto journalJobEvent = [&](const char *ev, const CampaignJob &job,
                               std::initializer_list<
                                   std::pair<const char *, std::string>>
                                   extra) {
        JsonWriter w;
        w.beginObject();
        w.field("ev", ev);
        w.field("job", job.hex());
        w.field("idx", static_cast<std::int64_t>(job.index));
        for (const auto &kv : extra)
            w.field(kv.first, kv.second);
        w.endObject();
        journal.append(w.take());
    };

    auto failJob = [&](std::size_t i, const std::string &kind,
                       const std::string &detail, double now) {
        const CampaignJob &job = jobs_[i];
        JobOutcome &oc = outcomes_[i];
        journalJobEvent("fail", job,
                        {{"attempt", std::to_string(oc.fails)},
                         {"kind", kind},
                         {"detail", detail}});
        ++oc.fails;
        oc.lastKind = kind;
        if (oc.fails > opts_.retryMax) {
            journalJobEvent("dead", job,
                            {{"fails", std::to_string(oc.fails)}});
            oc.failed = true;
            warn("campaign: job %d (%s) failed permanently after %d "
                 "attempts (last: %s)",
                 job.index, job.hex().c_str(), oc.fails,
                 kind.c_str());
        } else {
            notBefore[i] = now + backoffMs(job, oc.fails);
        }
    };

    while (true) {
        bool allTerminal = true;
        for (std::size_t i = 0; i < jobs_.size(); ++i)
            if (!terminal(i)) {
                allTerminal = false;
                break;
            }
        if (allTerminal)
            break;

        double now = monotonicMs();
        bool launched = false;
        for (std::size_t i = 0; i < jobs_.size() &&
                                sup.liveWorkers() < opts_.workers;
             ++i) {
            if (terminal(i) || running[i] || now < notBefore[i])
                continue;
            const CampaignJob &job = jobs_[i];
            int attempt = outcomes_[i].fails;
            journalJobEvent("start", job,
                            {{"attempt", std::to_string(attempt)}});
            std::vector<std::string> argv = opts_.workerCmd;
            for (const auto &kv : job.knobs)
                argv.push_back(kv.first + "=" + kv.second);
            argv.push_back("--json");
            argv.push_back(reportPath(job, attempt));
            if (!sup.launch(argv, logPath(job, attempt), attempt,
                            now + opts_.wallTimeoutMs,
                            static_cast<int>(i))) {
                failJob(i, "crash", "fork failed", now);
                continue;
            }
            running[i] = true;
            launched = true;
        }

        std::vector<std::pair<int, WorkerExit>> finished =
            sup.poll(monotonicMs());
        double afterPoll = monotonicMs();
        for (const auto &[token, ex] : finished) {
            auto i = static_cast<std::size_t>(token);
            running[i] = false;
            const CampaignJob &job = jobs_[i];
            int attempt = outcomes_[i].fails;
            if (ex.kind == WorkerExit::Kind::clean) {
                JsonValue rep;
                std::string err = validateWorkerReport(
                    reportPath(job, attempt), &rep);
                if (err.empty()) {
                    journalJobEvent(
                        "ok", job,
                        {{"report", "reports/job-" + job.hex() +
                                        "-a" +
                                        std::to_string(attempt) +
                                        ".json"}});
                    outcomes_[i].done = true;
                    outcomes_[i].reportPath =
                        reportPath(job, attempt);
                    continue;
                }
                failJob(i,
                        ex.timedOut ? "timeout" : "report-invalid",
                        err, afterPoll);
            } else {
                std::string detail =
                    (ex.kind == WorkerExit::Kind::signaled
                         ? "signal "
                         : "exit ") +
                    std::to_string(ex.status);
                failJob(i, ex.timedOut ? "timeout" : "crash", detail,
                        afterPoll);
            }
        }

        if (!launched && finished.empty())
            sleepMs(opts_.pollMs);
    }

    // Aggregate: a pure function of the job list and the validated
    // per-job reports (never of scheduling or retry timing).
    Aggregate agg(spec_.name, specHash_);
    for (std::size_t i = 0; i < jobs_.size(); ++i) {
        const JobOutcome &oc = outcomes_[i];
        if (oc.done) {
            JsonValue rep;
            std::string err =
                validateWorkerReport(oc.reportPath, &rep);
            fatal_if(!err.empty(),
                     "campaign: completed job %d lost its report "
                     "before aggregation: %s",
                     jobs_[i].index, err.c_str());
            agg.addDone(jobs_[i], rep, oc.fails);
        } else {
            agg.addFailed(jobs_[i], oc.fails, oc.lastKind);
        }
    }
    writeFileAtomic(aggregatePath(), agg.json());

    if (!quiet()) {
        std::vector<std::string> sweptKeys;
        for (const auto &kv : spec_.matrix)
            sweptKeys.push_back(kv.first);
        agg.table(sweptKeys).print();
    }
    inform("campaign %s: %d/%zu jobs ok, %d failed; aggregate at %s",
           spec_.name.c_str(), agg.doneJobs(), jobs_.size(),
           agg.failedJobs(), aggregatePath().c_str());
    return agg.failedJobs() ? exitDegraded : exitOk;
}

} // namespace nifdy
