/**
 * @file
 * Periodic JSONL metric snapshots.
 *
 * A Metrics object owns the snapshot file and its clock. Each row is
 * one self-contained JSON line -- a time series diffable across
 * runs. The object frames the row (schema, cycle stamp, the empty
 * counters object) and hands the body to its owner's row writer,
 * which samples every gauge and distribution at that instant, so
 * sampling cost is paid per snapshot, never per cycle. Distributions
 * are exported with p50/p95/p99 from the power-of-two histogram
 * buckets (writeDist()).
 *
 * When snapshotting is on (metrics.path / metrics.interval knobs)
 * the object sits on the probe bus: Probes::endCycle() ticks its
 * clock once per cycle after every component, and Probes::finish()
 * writes the last row.
 */

#ifndef NIFDY_SIM_METRICS_HH
#define NIFDY_SIM_METRICS_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "sim/stats.hh"
#include "sim/types.hh"

namespace nifdy
{

class JsonWriter;

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
    /** Writes one row's "gauges" and "distributions" members for
     * the snapshot at the given cycle. */
    using RowWriter = std::function<void(JsonWriter &, Cycle)>;

    /** Open @p cfg's file, named through uniquifyPath(), and arm
     * periodic snapshots; @p row fills every row. */
    Metrics(const MetricsConfig &cfg, RowWriter row);
    ~Metrics();
    Metrics(const Metrics &) = delete;
    Metrics &operator=(const Metrics &) = delete;

    /** End-of-cycle slot: takes a snapshot when one is due. */
    void endCycle(Cycle now);

    /** Final snapshot (if the last interval is partially elapsed)
     * and file close. Idempotent. */
    void finish(Cycle now);

    /** Write @p d as member @p key: count / mean / min / max / p50 /
     * p95 / p99. */
    static void writeDist(JsonWriter &w, const std::string &key,
                          const Distribution &d);

  private:
    void takeSnapshot(Cycle now);

    MetricsConfig cfg_;
    RowWriter row_;
    /** Opaque ofstream (kept out of the header). */
    struct Writer;
    std::unique_ptr<Writer> writer_;
    Cycle nextSnapshot_ = 0;
    Cycle lastSnapshot_ = neverCycle;
};

} // namespace nifdy

#endif // NIFDY_SIM_METRICS_HH
