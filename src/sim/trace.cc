#include "sim/trace.hh"

#include <cstring>
#include <fstream>
#include <iterator>
#include <unordered_map>

#include "net/packet.hh"
#include "sim/json.hh"
#include "sim/log.hh"

namespace nifdy
{

void
TraceConfig::validate() const
{
    fatal_if(sampleRate < 0.0 || sampleRate > 1.0,
             "trace.sampleRate %f out of [0, 1]", sampleRate);
    fatal_if(maxEvents == 0, "trace.maxEvents must be positive");
}

Tracer::Tracer(const TraceConfig &cfg)
    : cfg_(cfg), sampler_(cfg.sampleRate, cfg.seed)
{
    cfg_.validate();
    path_ = uniquifyPath(cfg_.path);
}

Tracer::~Tracer() { close(); }

void
Tracer::record(const char *name, std::uint64_t rootId, Cycle now,
               int track, std::int32_t attempt, const char *why,
               char ph, std::int64_t value)
{
    if (closed_)
        return;
    if (events_.size() >= cfg_.maxEvents) {
        ++dropped_;
        return;
    }
    events_.push_back(Event{name, why, rootId, now,
                            static_cast<std::int32_t>(track), attempt,
                            ph, value});
}

void
Tracer::packetEvent(const char *name, const Packet &pkt, Cycle now,
                    int track, const char *why)
{
    // Acks and NIC-internal control packets are not lifecycle
    // subjects; their protocol effect is traced as ev::ackIssue (or
    // not at all), keeping one async chain per payload packet.
    if (pkt.type == PacketType::ack || pkt.ctrlOnly)
        return;
    if (!sampler_.keep(pkt.rootId()))
        return;
    record(name, pkt.rootId(), now, track, pkt.attempt, why);
}

void
Tracer::idEvent(const char *name, std::uint64_t rootId, Cycle now,
                int track, const char *why)
{
    if (!sampler_.keep(rootId))
        return;
    record(name, rootId, now, track, 0, why);
}

void
Tracer::anatomySlice(const char *name, std::uint64_t rootId,
                     Cycle from, Cycle to, int track)
{
    if (!sampler_.keep(rootId))
        return;
    std::int64_t len = static_cast<std::int64_t>(to - from);
    // Explicit "b"/"e" pair: the slice starts at the segment start,
    // which is in the past relative to the buffer tail. Perfetto
    // sorts by timestamp; `analyze.py trace` exempts "anatomy." names
    // from the per-chain monotonicity check for the same reason.
    record(name, rootId, from, track, 0, nullptr, 'b', len);
    record(name, rootId, to, track, 0, nullptr, 'e', len);
}

void
Tracer::counterSample(const char *name, Cycle now, std::int64_t value)
{
    record(name, 0, now, 0, 0, nullptr, 'C', value);
}

void
Tracer::close()
{
    if (closed_)
        return;
    closed_ = true;

    // Per-id first/last indices: the first event of a chain becomes
    // the async "b", the last the async "e", everything between "n".
    // The buffer is already in simulation-time order, so chains come
    // out with monotone timestamps by construction. Events carrying
    // an explicit phase (anatomy slices, counter samples) stay out
    // of the framing computation entirely.
    std::unordered_map<std::uint64_t, std::pair<std::size_t,
                                                std::size_t>> span;
    span.reserve(events_.size());
    for (std::size_t i = 0; i < events_.size(); ++i) {
        if (events_[i].ph != 0)
            continue;
        auto [it, fresh] = span.try_emplace(events_[i].id,
                                            std::make_pair(i, i));
        if (!fresh)
            it->second.second = i;
    }

    // Single-event chains are written as a b/e pair below, so the
    // emitted count exceeds the buffered count by one per singleton.
    std::uint64_t emitted = events_.size();
    for (const auto &kv : span) // nifdy:unordered-ok(commutative count of singletons)
        if (kv.second.first == kv.second.second)
            ++emitted;

    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    panic_if(!out, "cannot open trace file %s", path_.c_str());

    auto emit = [&out](const Event &e, char phase) {
        JsonWriter w;
        w.beginObject();
        w.field("name", e.name);
        // Counter tracks are categorized by their owning subsystem
        // (the name prefix); slices stay "packet" so they nest under
        // the lifecycle chains sharing their async id.
        const bool congCounter =
            phase == 'C' &&
            std::strncmp(e.name, "congestion.", 11) == 0;
        w.field("cat", phase == 'C'
                           ? (congCounter ? "congestion" : "anatomy")
                           : "packet");
        w.field("ph", std::string_view(&phase, 1));
        w.field("id", e.id);
        w.field("pid", 0);
        w.field("tid", std::int64_t(e.track));
        w.field("ts", std::uint64_t(e.ts));
        w.key("args");
        w.beginObject();
        if (phase == 'C') {
            w.field("packets", e.value);
        } else {
            w.field("attempt", std::int64_t(e.attempt));
            if (e.ph != 0)
                w.field("cycles", e.value);
            if (e.why)
                w.field("why", e.why);
        }
        w.endObject();
        w.endObject();
        out << w.str();
    };

    out << "{\"traceEvents\":[";
    bool first = true;
    for (std::size_t i = 0; i < events_.size(); ++i) {
        const Event &e = events_[i];
        if (!first)
            out << ",";
        first = false;
        if (e.ph != 0) {
            // Anatomy slice / counter sample: phase is explicit.
            emit(e, e.ph);
            continue;
        }
        const auto &[lo, hi] = span.at(e.id);
        if (lo == hi) {
            // Single-event chain: emit a matching b/e pair so every
            // async id is well formed.
            emit(e, 'b');
            out << ",";
            emit(e, 'e');
        } else if (i == lo) {
            emit(e, 'b');
        } else if (i == hi) {
            emit(e, 'e');
        } else {
            emit(e, 'n');
        }
    }
    out << "],\"otherData\":";
    JsonWriter meta;
    meta.beginObject();
    meta.field("schema", "nifdy-trace-1");
    meta.field("clockDomain", "cycles");
    meta.field("sampleRate", cfg_.sampleRate);
    meta.field("maxEvents", cfg_.maxEvents);
    meta.field("eventsRecorded", emitted);
    meta.field("eventsDropped", dropped_);
    meta.endObject();
    out << meta.str() << "}\n";
    panic_if(!out.good(), "short write on trace file %s",
             path_.c_str());
}

} // namespace nifdy
