#include "sim/stats.hh"

#include <algorithm>
#include <bit>

#include "sim/json.hh"
#include "sim/log.hh"

namespace nifdy
{

void
Distribution::sample(std::uint64_t v)
{
    if (count_ == 0 || v < min_)
        min_ = v;
    if (v > max_)
        max_ = v;
    ++count_;
    sum_ += v;
    int b = v < 2 ? 0 : std::bit_width(v) - 1;
    if (buckets_.size() <= static_cast<std::size_t>(b))
        buckets_.resize(b + 1, 0);
    ++buckets_[b];
}

std::uint64_t
Distribution::bucket(int b) const
{
    if (b < 0 || static_cast<std::size_t>(b) >= buckets_.size())
        return 0;
    return buckets_[b];
}

double
Distribution::percentile(double p) const
{
    if (count_ == 0)
        return 0.0;
    p = std::clamp(p, 0.0, 1.0);
    // Rank of the target sample, 1-based: ceil(p * count), at least 1.
    double rank = std::max(1.0, p * double(count_));
    std::uint64_t cum = 0;
    for (std::size_t b = 0; b < buckets_.size(); ++b) {
        if (buckets_[b] == 0)
            continue;
        if (double(cum + buckets_[b]) >= rank) {
            // Interpolate inside [lo, hi): bucket 0 holds {0, 1}.
            double lo = b == 0 ? 0.0 : double(std::uint64_t(1) << b);
            double hi = double(std::uint64_t(1) << (b + 1));
            double frac = (rank - double(cum)) / double(buckets_[b]);
            double v = lo + frac * (hi - lo);
            return std::clamp(v, double(min()), double(max_));
        }
        cum += buckets_[b];
    }
    return double(max_);
}

void
Distribution::merge(const Distribution &other)
{
    if (other.count_ == 0)
        return;
    if (count_ == 0 || other.min_ < min_)
        min_ = other.min_;
    max_ = std::max(max_, other.max_);
    count_ += other.count_;
    sum_ += other.sum_;
    if (buckets_.size() < other.buckets_.size())
        buckets_.resize(other.buckets_.size(), 0);
    for (std::size_t b = 0; b < other.buckets_.size(); ++b)
        buckets_[b] += other.buckets_[b];
}

void
TimeSeries::record(Cycle now, std::vector<std::uint32_t> row)
{
    panic_if(row.size() != static_cast<std::size_t>(width_),
             "TimeSeries row width %zu != %d", row.size(), width_);
    times_.push_back(now);
    rows_.push_back(std::move(row));
    nextSample_ = now + interval_;
}

const std::vector<std::uint32_t> &
TimeSeries::row(std::size_t i) const
{
    return rows_.at(i);
}

std::string
TimeSeries::json() const
{
    JsonWriter w;
    w.beginObject();
    w.field("name", name_);
    w.field("width", width_);
    w.field("interval", std::uint64_t(interval_));
    w.key("times");
    w.beginArray();
    for (Cycle t : times_)
        w.value(std::uint64_t(t));
    w.endArray();
    w.key("rows");
    w.beginArray();
    for (const auto &row : rows_) {
        w.beginArray();
        for (std::uint32_t v : row)
            w.value(v);
        w.endArray();
    }
    w.endArray();
    w.endObject();
    return w.take();
}

} // namespace nifdy
