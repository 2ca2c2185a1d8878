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

Metrics::Metrics() = default;

Metrics::~Metrics()
{
    if (writer_)
        finish(lastSnapshot_ == neverCycle ? 0 : lastSnapshot_);
}

void
Metrics::addGauge(const std::string &name, int instance,
                  std::function<double(Cycle)> fn)
{
    std::string key = name;
    if (instance >= 0) {
        key += '[';
        key += JsonWriter::numStr(std::int64_t(instance));
        key += ']';
    }
    gauges_.push_back(Gauge{std::move(key), std::move(fn)});
}

void
Metrics::addDistSource(const std::string &name,
                       std::function<Distribution()> fn)
{
    distSources_.push_back(DistSource{name, std::move(fn)});
}

void
Metrics::startSnapshots(const MetricsConfig &cfg)
{
    cfg.validate();
    panic_if(cfg.path.empty(),
             "metrics snapshots need a metrics.path");
    panic_if(writer_ != nullptr, "metrics snapshots already started");
    cfg_ = cfg;
    cfg_.path = uniquifyPath(cfg.path);
    writer_ = std::make_unique<Writer>();
    writer_->out.open(cfg_.path,
                      std::ios::binary | std::ios::trunc);
    panic_if(!writer_->out, "cannot open metrics file %s",
             cfg_.path.c_str());
    nextSnapshot_ = 0;
}

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
    writer_->out << snapshotJson(now) << "\n";
    lastSnapshot_ = now;
    ++snapshots_;
}

std::string
Metrics::snapshotJson(Cycle now) const
{
    JsonWriter w;
    w.beginObject();
    w.field("schema", "nifdy-metrics-1");
    w.field("cycle", std::uint64_t(now));

    // Kept, always empty, for nifdy-metrics-1 readers: every count
    // is a gauge.
    w.key("counters");
    w.beginObject();
    w.endObject();

    w.key("gauges");
    w.beginObject();
    for (const Gauge &g : gauges_)
        w.field(g.key, g.fn(now));
    w.endObject();

    w.key("distributions");
    w.beginObject();
    for (const DistSource &src : distSources_) {
        const Distribution d = src.fn();
        w.key(src.key);
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
    w.endObject();

    w.endObject();
    return w.take();
}

} // namespace nifdy
