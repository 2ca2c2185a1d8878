/**
 * @file
 * Fault-tolerant campaign engine: journaled config sweeps.
 *
 * A campaign spec (campaign-spec-1 JSON: a matrix of experiment
 * knobs crossed with a seed list) expands into a deterministic job
 * list; the engine fans the jobs out across parallel worker
 * subprocesses (examples/run_experiment by default), records every
 * state transition in a write-ahead journal (src/campaign/journal),
 * supervises workers against crashes, hangs and truncated reports
 * (src/campaign/supervisor), retries failures with jittered
 * exponential backoff up to a cap, and aggregates the surviving
 * nifdy-report-1 documents into one comparative campaign-aggregate-1
 * report (src/campaign/aggregate).
 *
 * The robustness contract (asserted by tests/test_campaign.cc and
 * the CI `campaign` job): `kill -9` of the engine at any point,
 * followed by --resume, yields an aggregate byte-identical to an
 * uninterrupted run -- no job lost, none double-counted -- and a job
 * that keeps failing is marked failed after the retry cap instead of
 * wedging the sweep. See DESIGN.md section 11.
 */

#ifndef NIFDY_CAMPAIGN_ENGINE_HH
#define NIFDY_CAMPAIGN_ENGINE_HH

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace nifdy
{

class Config;

inline constexpr const char *campaignSpecSchema = "campaign-spec-1";

/** FNV-1a 64-bit over @p s (job and spec identity). */
std::uint64_t fnv1a64(std::string_view s);
/** 16-digit lowercase hex rendering of @p v. */
std::string hex16(std::uint64_t v);

/** One expanded job: a complete worker knob assignment. */
struct CampaignJob
{
    int index = 0;
    /** Full key=value set: fixed + one matrix assignment + seed. */
    std::map<std::string, std::string> knobs;
    /** fnv1a64 of canonical(); identifies the job in the journal. */
    std::uint64_t hash = 0;

    /** Sorted "k=v\n" concatenation (hash input). */
    std::string canonical() const;
    std::string hex() const { return hex16(hash); }
};

/** Parsed campaign-spec-1 document. */
struct CampaignSpec
{
    std::string name;
    /** Knobs shared by every job. */
    std::map<std::string, std::string> fixed;
    /** Swept knobs, sorted by key; values in spec order. */
    std::vector<std::pair<std::string, std::vector<std::string>>>
        matrix;
    /** Workload seeds; each matrix point runs once per seed. */
    std::vector<std::string> seeds;
    /** campaign.* engine knobs embedded in the spec (defaults that
     * the command line can still override). */
    std::map<std::string, std::string> engineKnobs;

    /** Parse and validate (fatal() on malformed specs). */
    static CampaignSpec parse(const std::string &text);
    static CampaignSpec parseFile(const std::string &path);

    /**
     * The deterministic job list: the cartesian product of the
     * matrix (sorted keys, rightmost key varies fastest) crossed
     * with the seed list (innermost). @p jobTimeout > 0 adds a
     * timeout=N knob to every job.
     */
    std::vector<CampaignJob> expand(long jobTimeout = 0) const;
};

/** Identity of the expanded job list: two specs that expand to the
 * same jobs may resume each other; anything else must refuse. */
std::uint64_t campaignSpecHash(const std::vector<CampaignJob> &jobs);

/** Engine policy; campaign.* knobs (see campaignFromConfig()). */
struct CampaignOptions
{
    std::string dir;      //!< journal, reports/, logs/, aggregate
    std::vector<std::string> workerCmd; //!< argv prefix for workers
    bool resume = false;
    int workers = 4;
    int retryMax = 3;
    double backoffBaseMs = 100;
    double backoffFactor = 2;
    double backoffMaxMs = 5000;
    double jitterFrac = 0.25;
    double wallTimeoutMs = 30000;
    double termGraceMs = 2000;
    long jobTimeout = 0;
    double pollMs = 2;
    std::uint64_t seed = 1;
    long failpoint = 0; //!< _exit(137) after N journal appends

    void validate() const;
};

/** Bind the campaign.* knobs of @p conf (CampaignOptions::validate()
 * checks their ranges). */
CampaignOptions campaignFromConfig(const Config &conf);

/** Final state of one job after a campaign (test introspection). */
struct JobOutcome
{
    bool done = false;   //!< aggregated exactly once
    bool failed = false; //!< retries exhausted
    int fails = 0;       //!< failed attempts observed
    std::string lastKind; //!< last failure kind ("" if none)
    std::string reportPath; //!< validated report (done jobs)
};

class CampaignEngine
{
  public:
    static constexpr int exitOk = 0;
    /** Some jobs exhausted their retries; the aggregate still
     * covers every other job (graceful degradation). */
    static constexpr int exitDegraded = 2;

    CampaignEngine(CampaignSpec spec, CampaignOptions opts);

    /**
     * Run (or --resume) the campaign to completion and write
     * <dir>/aggregate.json. Returns exitOk or exitDegraded;
     * fatal() on unusable state (e.g. resume spec mismatch).
     */
    int execute();

    const std::vector<CampaignJob> &jobs() const { return jobs_; }
    const std::vector<JobOutcome> &outcomes() const
    {
        return outcomes_;
    }
    std::uint64_t specHash() const { return specHash_; }
    std::string aggregatePath() const;
    std::string journalPath() const;

  private:
    std::string reportPath(const CampaignJob &job, int attempt) const;
    std::string logPath(const CampaignJob &job, int attempt) const;
    /** Replay the journal into outcomes_ (resume path). */
    void replayJournal();
    /** Jittered exponential backoff after @p fails failures. */
    double backoffMs(const CampaignJob &job, int fails) const;

    CampaignSpec spec_;
    CampaignOptions opts_;
    std::vector<CampaignJob> jobs_;
    std::vector<JobOutcome> outcomes_;
    std::uint64_t specHash_ = 0;
};

} // namespace nifdy

#endif // NIFDY_CAMPAIGN_ENGINE_HH
