/**
 * @file
 * Metric registry with periodic JSONL snapshots.
 *
 * A Metrics object holds two registration kinds:
 *
 *  - gauges: named callbacks sampled only at snapshot instants, in
 *    registration order (per-channel utilization, OPT/window
 *    occupancy, buffer depth); registration is cheap and sampling
 *    cost is paid per snapshot, never per cycle;
 *  - distribution sources: callbacks producing a Distribution on
 *    demand (e.g. packet latency merged across every NIC), exported
 *    with p50/p95/p99 from the power-of-two histogram buckets.
 *
 * When snapshotting is started (metrics.path / metrics.interval
 * knobs) the Kernel calls endCycle() once per cycle after every
 * component (Kernel::setMetrics) and
 * each due snapshot appends one self-contained JSON line to the
 * output file -- a JSONL time series diffable across runs.
 */

#ifndef NIFDY_SIM_METRICS_HH
#define NIFDY_SIM_METRICS_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "sim/stats.hh"
#include "sim/types.hh"

namespace nifdy
{

/** Runtime knobs (CLI: metrics.path / metrics.interval). */
struct MetricsConfig
{
    /** JSONL output file; empty disables periodic snapshots. */
    std::string path;
    /** Cycles between snapshots. */
    Cycle interval = 10000;

    /** Fatal on out-of-range knobs. */
    void validate() const;
};

class Metrics
{
  public:
    Metrics();
    ~Metrics();
    Metrics(const Metrics &) = delete;
    Metrics &operator=(const Metrics &) = delete;

    /**
     * Register a gauge. @p instance distinguishes replicas of one
     * component kind (router 3, channel 17, ...); the exported key
     * is "name[instance]", or just "name" when instance < 0. The
     * callback runs at snapshot time only.
     */
    void addGauge(const std::string &name, int instance,
                  std::function<double(Cycle)> fn);

    /** Register a distribution source, exported with count / mean /
     * min / max / p50 / p95 / p99 at each snapshot. */
    void addDistSource(const std::string &name,
                       std::function<Distribution()> fn);

    /** Open the JSONL file, named through uniquifyPath(), and arm
     * periodic snapshots. */
    void startSnapshots(const MetricsConfig &cfg);
    bool snapshotting() const { return writer_ != nullptr; }

    /** Kernel slot: takes a snapshot when one is due. */
    void endCycle(Cycle now);

    /** Final snapshot (if the last interval is partially elapsed)
     * and file close. Idempotent; the destructor calls it. */
    void finish(Cycle now);

    /** One snapshot rendered as a single JSON line (no trailing
     * newline); also usable without a file for tests/reports. */
    std::string snapshotJson(Cycle now) const;

    std::uint64_t snapshotsTaken() const { return snapshots_; }

  private:
    struct Gauge
    {
        std::string key;
        std::function<double(Cycle)> fn;
    };
    struct DistSource
    {
        std::string key;
        std::function<Distribution()> fn;
    };

    void takeSnapshot(Cycle now);

    std::vector<Gauge> gauges_;
    std::vector<DistSource> distSources_;
    MetricsConfig cfg_;
    /** Opaque ofstream (kept out of the header). */
    struct Writer;
    std::unique_ptr<Writer> writer_;
    Cycle nextSnapshot_ = 0;
    Cycle lastSnapshot_ = neverCycle;
    std::uint64_t snapshots_ = 0;
};

} // namespace nifdy

#endif // NIFDY_SIM_METRICS_HH
