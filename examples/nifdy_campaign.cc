/**
 * @file
 * Fault-tolerant campaign driver: journaled config sweeps.
 *
 * Expands a campaign-spec-1 JSON document (a matrix of run_experiment
 * knobs crossed with a seed list) into a deterministic job list, fans
 * the jobs out across parallel worker subprocesses under supervision
 * (per-job wall-clock timeout, retry with jittered exponential
 * backoff, permanent-failure cap), journals every state transition to
 * <dir>/journal.jsonl, and writes the comparative aggregate to
 * <dir>/aggregate.json. `kill -9` the driver at any point and rerun
 * with --resume: completed jobs are not re-run and the final
 * aggregate is byte-identical to an uninterrupted run.
 *
 * Usage: nifdy_campaign --spec PATH --dir DIR [options] [key=value..]
 *   --spec PATH     campaign-spec-1 JSON document (required)
 *   --dir DIR       campaign directory: journal, reports/, logs/,
 *                   aggregate.json (required)
 *   --resume        continue the journal already in DIR
 *   --worker CMD    worker command (space-split into argv; default:
 *                   the run_experiment binary next to this one)
 *   --help          print the campaign.* key and flag reference
 *   campaign.K=V    engine knobs; command line beats the spec's
 *                   campaign{} block (see --help)
 *
 * Exit status: 0 all jobs aggregated ok; 2 some jobs failed
 * permanently (the aggregate still covers every job); 1 unusable
 * invocation (bad spec, resume mismatch, ...).
 */

#include <exception>
#include <string>
#include <vector>

#include "campaign/engine.hh"
#include "sim/config.hh"
#include "sim/log.hh"

using namespace nifdy;

namespace
{

/** Split @p cmd on spaces (worker commands have no quoting needs). */
std::vector<std::string>
splitCommand(const std::string &cmd)
{
    std::vector<std::string> out;
    std::string cur;
    for (char c : cmd) {
        if (c == ' ') {
            if (!cur.empty())
                out.push_back(cur);
            cur.clear();
        } else {
            cur.push_back(c);
        }
    }
    if (!cur.empty())
        out.push_back(cur);
    return out;
}

/** The run_experiment binary that ships next to this driver. */
std::string
defaultWorker(const char *argv0)
{
    std::string self(argv0 ? argv0 : "");
    std::size_t slash = self.rfind('/');
    if (slash == std::string::npos)
        return "run_experiment";
    return self.substr(0, slash + 1) + "run_experiment";
}

int
runCampaign(int argc, char **argv)
{
    Config conf;
    conf.parseArgs(argc, argv);
    std::string specPath, dir, workerCmd;
    conf.flag("--spec", specPath, "campaign-spec-1 document (required)");
    conf.flag("--dir", dir,
              "campaign directory: journal, reports/, logs/, "
              "aggregate.json (required)");
    bool resume =
        conf.flag("--resume", "continue the journal already in DIR");
    conf.flag("--worker", workerCmd,
              "worker command, space-split (default: the "
              "run_experiment next to this binary)");

    // Precedence: engine defaults < the spec's campaign{} block <
    // the command line. conf already holds the command line, so only
    // fill in spec knobs the user did not override; the spec's keys
    // then face the same unknown-key check as the command line's.
    CampaignSpec spec;
    if (!specPath.empty()) {
        spec = CampaignSpec::parseFile(specPath);
        for (const auto &kv : spec.engineKnobs)
            if (!conf.has(kv.first))
                conf.set(kv.first, kv.second);
    }
    CampaignOptions opts = campaignFromConfig(conf);
    conf.close();
    fatal_if(specPath.empty(), "--spec PATH is required (see --help)");
    opts.dir = dir;
    opts.resume = resume;
    opts.workerCmd = splitCommand(
        workerCmd.empty() ? defaultWorker(argv[0]) : workerCmd);

    CampaignEngine engine(std::move(spec), opts);
    return engine.execute();
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return runCampaign(argc, argv);
    } catch (const std::exception &) {
        // fatal()/panic() already printed the diagnosis to stderr.
        return 1;
    }
}
