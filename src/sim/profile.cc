#include "sim/profile.hh"

#include <chrono>

#include "sim/kernel.hh"
#include "sim/log.hh"
#include "sim/report.hh"

namespace nifdy
{

void
ProfileConfig::validate() const
{
    fatal_if(interval == 0, "profile.interval must be >= 1");
}

Profiler::Profiler(const ProfileConfig &cfg) : cfg_(cfg)
{
    cfg_.validate();
}

NIFDY_HOT std::uint64_t
Profiler::hostNowNs()
{
    // The profiler's whole purpose is measuring host time; results
    // are quarantined in the nondeterministic report section.
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            // nifdy:wallclock-ok(host-cost profiler measures wall time by design)
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

void
Profiler::attach(const std::vector<Steppable *> &objects)
{
    // Cold by construction: runs only when the kernel's component
    // registry changed size, i.e. before steady state. Existing
    // accounts are preserved (components are only ever appended).
    comps_.resize(objects.size());
    for (std::size_t i = 0; i < objects.size(); ++i) {
        const char *cls = objects[i]->profileClass();
        std::size_t c = 0;
        for (; c < classes_.size(); ++c)
            if (classes_[c] == cls)
                break;
        if (c == classes_.size())
            classes_.emplace_back(cls);
        comps_[i].cls = c;
    }
}

NIFDY_HOT void
Profiler::beginTimed()
{
    chainBegin_ = chainLast_ = hostNowNs();
}

NIFDY_HOT void
Profiler::phaseTimed(ProfPhase ph)
{
    std::uint64_t t = hostNowNs();
    phaseNs_[static_cast<int>(ph)] += t - chainLast_;
    chainLast_ = t;
}

NIFDY_HOT void
Profiler::endTimed()
{
    std::uint64_t t = hostNowNs();
    phaseNs_[static_cast<int>(ProfPhase::self)] += t - chainLast_;
    loopNs_ += t - chainBegin_;
    chainLast_ = t;
    ++timedCycles_;
}

std::uint64_t
Profiler::classNs(std::size_t c) const
{
    std::uint64_t n = 0;
    for (const Comp &comp : comps_)
        if (comp.cls == c)
            n += comp.ns;
    return n;
}

std::uint64_t
Profiler::classSteps(std::size_t c) const
{
    std::uint64_t n = 0;
    for (const Comp &comp : comps_)
        if (comp.cls == c)
            n += comp.steps;
    return n;
}

std::uint64_t
Profiler::classIdleSteps(std::size_t c) const
{
    std::uint64_t n = 0;
    for (const Comp &comp : comps_)
        if (comp.cls == c)
            n += comp.idleSteps;
    return n;
}

void
Profiler::reportMetrics(RunReport &rep, const std::string &scope) const
{
    // Deterministic step/idle counters: pure functions of the
    // simulation, so they live in the normal metrics section.
    const std::string mp = "profile." + scope;
    rep.addMetric(mp + "cycles", cycles_);
    rep.addMetric(mp + "cycles.timed", timedCycles_);
    for (std::size_t c = 0; c < classes_.size(); ++c) {
        rep.addMetric(mp + "steps." + classes_[c], classSteps(c));
        rep.addMetric(mp + "idlesteps." + classes_[c],
                      classIdleSteps(c));
    }
    // Host-time figures: nondeterministic, quarantined in the
    // report's "profile" section (excluded from byte-identity).
    const std::string hp = "host." + scope;
    rep.addProfile(hp + "loop.ns", loopNs_);
    if (timedCycles_ > 0)
        rep.addProfile(hp + "loop.nspercycle",
                       double(loopNs_) / double(timedCycles_));
    for (std::size_t c = 0; c < classes_.size(); ++c)
        rep.addProfile(hp + "class." + classes_[c] + ".ns", classNs(c));
    for (int ph = 0; ph < numProfPhases; ++ph)
        rep.addProfile(hp + "phase." + profPhaseSlugs[ph] + ".ns",
                       phaseNs_[ph]);
}

} // namespace nifdy
