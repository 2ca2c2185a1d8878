/**
 * @file
 * Lightweight statistics: distributions and sampled time series
 * (used, e.g., for the Figure-5 pending-packets heat map).
 */

#ifndef NIFDY_SIM_STATS_HH
#define NIFDY_SIM_STATS_HH

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/types.hh"

namespace nifdy
{

/**
 * Running distribution: count / sum / min / max / mean, plus a
 * coarse power-of-two histogram for shape checks in tests.
 */
class Distribution
{
  public:
    explicit Distribution(std::string name = "") : name_(std::move(name)) {}

    void sample(std::uint64_t v);

    std::uint64_t count() const { return count_; }
    std::uint64_t sum() const { return sum_; }
    std::uint64_t min() const { return count_ ? min_ : 0; }
    std::uint64_t max() const { return max_; }
    double mean() const { return count_ ? double(sum_) / count_ : 0.0; }
    const std::string &name() const { return name_; }

    /** Samples with value in [2^b, 2^(b+1)), bucket 0 holding {0,1}. */
    std::uint64_t bucket(int b) const;

    /**
     * Estimate the @p p quantile (p in [0, 1], e.g. 0.5 / 0.95 /
     * 0.99) from the power-of-two histogram: the bucket holding the
     * target rank is located by a cumulative scan and the value is
     * interpolated linearly inside it, then clamped to the observed
     * [min, max]. Exact for the extremes, within one bucket's span
     * otherwise. Returns 0 on an empty distribution.
     */
    double percentile(double p) const;

    /** Fold @p other into this distribution (for cross-NIC
     * aggregates); min/max/buckets combine exactly. */
    void merge(const Distribution &other);

  private:
    std::string name_;
    std::uint64_t count_ = 0;
    std::uint64_t sum_ = 0;
    std::uint64_t min_ = 0;
    std::uint64_t max_ = 0;
    std::vector<std::uint64_t> buckets_;
};

/**
 * Periodically sampled vector time series: one row of N values per
 * sample instant. Used for the per-receiver pending-packet map.
 */
class TimeSeries
{
  public:
    TimeSeries(std::string name, int width, Cycle interval)
        : name_(std::move(name)), width_(width), interval_(interval)
    {}

    /** True when it is time to take another sample. */
    bool due(Cycle now) const { return now >= nextSample_; }

    /** Record one row; advances the next-sample time. */
    void record(Cycle now, std::vector<std::uint32_t> row);

    std::size_t rows() const { return rows_.size(); }
    const std::vector<std::uint32_t> &row(std::size_t i) const;
    Cycle rowTime(std::size_t i) const { return times_.at(i); }
    const std::string &name() const { return name_; }

    /** JSON object {name, width, interval, times, rows}. */
    std::string json() const;

  private:
    std::string name_;
    int width_;
    Cycle interval_;
    Cycle nextSample_ = 0;
    std::vector<Cycle> times_;
    std::vector<std::vector<std::uint32_t>> rows_;
};

} // namespace nifdy

#endif // NIFDY_SIM_STATS_HH
