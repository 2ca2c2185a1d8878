#include "net/channel.hh"

#include <algorithm>

#include "sim/log.hh"

namespace nifdy
{

Channel::Channel(const ChannelParams &params) : params_(params)
{
    panic_if(params_.cyclesPerFlit < 1, "cyclesPerFlit must be >= 1");
    panic_if(params_.latency < 0, "negative channel latency");
}

int
Channel::classRate(NetClass cls) const
{
    (void)cls;
    // Time slicing halves the bandwidth each class sees.
    return params_.timeSliced ? params_.cyclesPerFlit * numNetClasses
                              : params_.cyclesPerFlit;
}

int
Channel::flightCycles() const
{
    return classRate(NetClass::request) + params_.latency;
}

bool
ArrivalWheel::fit(int flight)
{
    if (flight < slots())
        return false;
    int n = slots();
    while (n <= flight)
        n *= 2;
    if (n <= inlineSlots) {
        std::fill(inline_, inline_ + n, 0);
    } else {
        heap_.assign(n, 0);
        slots_ = heap_.data();
    }
    mask_ = static_cast<Cycle>(n - 1);
    return true;
}

bool
ArrivalWheel::empty() const
{
    return std::all_of(slots_, slots_ + slots(),
                       [](std::uint64_t ports) { return ports == 0; });
}

void
Channel::watchArrivals(ArrivalWheel *wheel, int bit)
{
    panic_if(wheel->slots() <= flightCycles(),
             "arrival wheel of %d slots for a %d-cycle flight",
             wheel->slots(), flightCycles());
    wheel_ = wheel;
    wheelBit_ = std::uint64_t{1} << bit;
    for (const auto &queued : flits_)
        wheel_->mark(queued.first, wheelBit_);
}

void
Channel::watchCredits(std::uint64_t *mask, int bit)
{
    creditMask_ = mask;
    creditBit_ = std::uint64_t{1} << bit;
    if (!credits_.empty())
        *creditMask_ |= creditBit_;
}

void
Channel::addDownWindow(Cycle from, Cycle until)
{
    panic_if(until != 0 && until <= from,
             "empty channel down window [%llu, %llu)",
             static_cast<unsigned long long>(from),
             static_cast<unsigned long long>(until));
    down_.push_back({from, until});
}

NIFDY_HOT void
Channel::push(const Flit &flit, Cycle now)
{
    panic_if(!flit.valid(), "pushing invalid flit");
    NetClass cls = flit.pkt->netClass;
    panic_if(!canPush(cls, now), "push on busy channel");
    int slot = params_.timeSliced ? static_cast<int>(cls) : 0;
    nextFree_[slot] = now + classRate(cls);
    Cycle arrival = now + classRate(cls) + params_.latency;
    flits_.push_back({arrival, flit}); // nifdy:alloc-ok(Ring grows to high-water then reuses)
    if (wheel_)
        wheel_->mark(arrival, wheelBit_);
    ++totalFlits_;
    ++classFlits_[static_cast<int>(cls)];
    panic_if(capacityFlits_ > 0 && inFlight() > capacityFlits_,
             "channel over capacity: %d flits in flight, "
             "credit-bounded capacity %d (%s)",
             inFlight(), capacityFlits_,
             flit.pkt->toString().c_str());
}

NIFDY_HOT Flit
Channel::pop(Cycle now)
{
    panic_if(!hasFlit(now), "pop on empty channel");
    Flit f = flits_.front().second;
    flits_.pop_front();
    return f;
}

NIFDY_HOT void
Channel::pushCredit(int vc, Cycle now)
{
    credits_.push_back({now + 1, vc}); // nifdy:alloc-ok(Ring grows to high-water then reuses)
    if (creditMask_)
        *creditMask_ |= creditBit_;
    if (creditSleeper_)
        creditSleeper_->wakeBy(now + 1);
}

NIFDY_HOT int
Channel::popCredit(Cycle now)
{
    panic_if(!hasCredit(now), "popCredit on empty credit queue");
    int vc = credits_.front().second;
    credits_.pop_front();
    if (creditMask_ && credits_.empty())
        *creditMask_ &= ~creditBit_;
    return vc;
}

} // namespace nifdy
