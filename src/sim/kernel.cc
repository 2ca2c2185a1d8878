#include "sim/kernel.hh"

#include <sstream>

#include "sim/log.hh"
#include "sim/profile.hh"

namespace nifdy
{

void
Kernel::add(Steppable *obj)
{
    panic_if(obj == nullptr, "Kernel::add(nullptr)");
    objects_.push_back(obj);
}

void
Kernel::busyHorizonDropped()
{
    busyHorizon_ = 0;
    for (const Steppable *obj : objects_)
        noteBusyUntil(obj->busyUntil());
}

NIFDY_HOT void
Kernel::closeCycle(std::uint64_t before)
{
    const bool active = activityEvents_ != before || now_ < busyHorizon_;
    ++now_;
    if (active)
        idleCycles_ = 0;
    else
        ++idleCycles_;
}

NIFDY_HOT void
Kernel::step()
{
    if (probes_.profiler()) [[unlikely]] {
        stepProfiled();
        return;
    }
    const std::uint64_t before = activityEvents_;
    for (Steppable *obj : objects_) {
        if (obj->wake() > now_)
            continue;
        obj->step(now_);
        ++steps_;
    }
    probes_.endCycle(now_);
    closeCycle(before);
}

NIFDY_HOT void
Kernel::stepProfiled()
{
    Profiler &p = *probes_.profiler();
    p.sync(objects_);
    const std::uint64_t before = activityEvents_;
    std::uint64_t prev = before;
    if (p.timedCycle(now_)) {
        // Chained clock: every read both closes one account's
        // segment and opens the next, so the per-component and
        // per-phase deltas telescope to the loop total exactly.
        // A sleeping component reads no clock: its skip is charged
        // to the next component that steps.
        p.beginTimed();
        for (std::size_t i = 0; i < objects_.size(); ++i) {
            if (objects_[i]->wake() > now_)
                continue;
            objects_[i]->step(now_);
            ++steps_;
            const std::uint64_t after = activityEvents_;
            p.componentTimed(i, after != prev);
            prev = after;
        }
        probes_.endCycle(now_);
        // With nothing watching the cycle the slot is a few pointer
        // tests; they stay in self, with no extra clock read.
        if (probes_.watchesCycles())
            p.phaseTimed(ProfPhase::probes);
        p.endTimed();
    } else {
        for (std::size_t i = 0; i < objects_.size(); ++i) {
            if (objects_[i]->wake() > now_)
                continue;
            objects_[i]->step(now_);
            ++steps_;
            const std::uint64_t after = activityEvents_;
            p.componentStep(i, after != prev);
            prev = after;
        }
        probes_.endCycle(now_);
    }
    p.countCycle();
    closeCycle(before);
}

NIFDY_HOT Cycle
Kernel::run(Cycle maxCycles, const std::function<bool()> &done)
{
    Cycle executed = 0;
    while (executed < maxCycles) {
        if (done && done())
            break;
        step();
        ++executed;
        if (watchdogLimit_ && idleCycles_ >= watchdogLimit_)
            [[unlikely]]
        {
            if (done)
                watchdogPanic();
            // Without a completion predicate, quiescence simply
            // means there is nothing left to simulate.
            break;
        }
    }
    return executed;
}

void
Kernel::watchdogPanic() const
{
    // Cold by construction: building the message allocates, which
    // must stay out of the NIFDY_HOT run loop above.
    std::ostringstream os;
    os << "no activity for " << idleCycles_ << " cycles at cycle "
       << now_ << " with unfinished work (" << objects_.size()
       << " components)";
    panic("deadlock watchdog: %s", os.str().c_str());
}

} // namespace nifdy
