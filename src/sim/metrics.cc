#include "sim/metrics.hh"

#include <fstream>

#include "sim/json.hh"
#include "sim/log.hh"

namespace nifdy
{

struct Metrics::Writer
{
    std::ofstream out;
};

void
MetricsConfig::validate() const
{
    fatal_if(interval == 0, "metrics.interval must be positive");
}

Metrics::Metrics(const MetricsConfig &cfg, RowWriter row)
    : cfg_(cfg), row_(std::move(row))
{
    cfg.validate();
    panic_if(cfg.path.empty(), "metrics snapshots need a metrics.path");
    cfg_.path = uniquifyPath(cfg.path);
    writer_ = std::make_unique<Writer>();
    writer_->out.open(cfg_.path, std::ios::binary | std::ios::trunc);
    panic_if(!writer_->out, "cannot open metrics file %s",
             cfg_.path.c_str());
}

Metrics::~Metrics() = default;

void
Metrics::endCycle(Cycle now)
{
    if (!writer_ || now < nextSnapshot_)
        return;
    takeSnapshot(now);
    nextSnapshot_ = now + cfg_.interval;
}

void
Metrics::finish(Cycle now)
{
    if (!writer_)
        return;
    // Kernel::now() is one past the last executed cycle, so a run
    // ending exactly on a snapshot boundary hands finish() a cycle
    // one beyond the row endCycle() just wrote. Skipping that case
    // avoids a duplicate final row that differs only in its stamp.
    if (lastSnapshot_ == neverCycle || now > lastSnapshot_ + 1)
        takeSnapshot(now);
    writer_->out.flush();
    panic_if(!writer_->out.good(), "short write on metrics file %s",
             cfg_.path.c_str());
    writer_.reset();
}

void
Metrics::takeSnapshot(Cycle now)
{
    panic_if(lastSnapshot_ != neverCycle && now <= lastSnapshot_,
             "metrics snapshot cycle stamps must be strictly "
             "increasing (%llu after %llu)",
             static_cast<unsigned long long>(now),
             static_cast<unsigned long long>(lastSnapshot_));
    JsonWriter w;
    w.beginObject();
    w.field("schema", "nifdy-metrics-1");
    w.field("cycle", std::uint64_t(now));
    // Kept, always empty, for nifdy-metrics-1 readers: every count
    // is a gauge.
    w.key("counters");
    w.beginObject();
    w.endObject();
    row_(w, now);
    w.endObject();
    writer_->out << w.take() << "\n";
    lastSnapshot_ = now;
}

void
Metrics::writeDist(JsonWriter &w, const std::string &key,
                   const Distribution &d)
{
    w.key(key);
    w.beginObject();
    w.field("count", d.count());
    w.field("mean", d.mean());
    w.field("min", d.min());
    w.field("max", d.max());
    w.field("p50", d.percentile(0.50));
    w.field("p95", d.percentile(0.95));
    w.field("p99", d.percentile(0.99));
    w.endObject();
}

} // namespace nifdy
