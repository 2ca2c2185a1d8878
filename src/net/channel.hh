/**
 * @file
 * Point-to-point link with serialization, latency, and a reverse
 * credit path.
 *
 * A Channel carries flits in one direction and buffer credits in the
 * other. Bandwidth is expressed as cycles per flit (a 32-bit flit on
 * the paper's 1-byte links takes 4 cycles). The two logical networks
 * (request/reply) are either demand-multiplexed over the full
 * physical bandwidth or strictly time-sliced so each class gets half
 * the bandwidth regardless of the other's traffic (the CM-5 mode).
 *
 * Everything pushed during cycle t becomes visible to the consumer
 * no earlier than cycle t+1, which makes intra-cycle component
 * ordering immaterial.
 */

#ifndef NIFDY_NET_CHANNEL_HH
#define NIFDY_NET_CHANNEL_HH

#include <cstdint>
#include <vector>

#include "net/packet.hh"
#include "sim/kernel.hh"
#include "sim/ring.hh"
#include "sim/types.hh"

namespace nifdy
{

/** Static channel configuration. */
struct ChannelParams
{
    /** Cycles to serialize one flit at full physical bandwidth. */
    int cyclesPerFlit = 4;
    /** Extra pipeline latency in cycles (wire/router stages). */
    int latency = 1;
    /**
     * Strict time multiplexing of the two logical networks: each
     * class gets an independent serializer at half bandwidth.
     */
    bool timeSliced = false;
};

/**
 * A consumer's arrival wheel: one turn of a hashed timing wheel
 * (Varghese & Lauck, SOSP 1987). Slot (cycle & mask) holds the input
 * ports whose flit becomes visible at that cycle. Channel::push()
 * knows the arrival cycle and marks its slot, and the consumer takes
 * the slot of `now` each step and pops only those ports.
 *
 * Exact while the wheel has more slots than any attached channel's
 * flight time (fit()), so no arrival aliases an earlier cycle, and
 * the consumer pops every flit in the cycle it becomes visible. A
 * consumer that sleeps names itself (wakeOnMark()), and each mark
 * wakes it by the arrival cycle.
 */
class ArrivalWheel
{
  public:
    ArrivalWheel() = default;
    /** Channels point at the wheel, and the wheel at its slots. */
    ArrivalWheel(const ArrivalWheel &) = delete;
    ArrivalWheel &operator=(const ArrivalWheel &) = delete;

    /** The ports with a flit becoming visible at @p now; clears
     * their slot. */
    std::uint64_t take(Cycle now)
    {
        std::uint64_t &slot = slots_[now & mask_];
        const std::uint64_t ports = slot;
        slot = 0;
        return ports;
    }

    /** Port bits @p ports see a flit at cycle @p at. */
    void mark(Cycle at, std::uint64_t ports)
    {
        slots_[at & mask_] |= ports;
        if (sleeper_)
            sleeper_->wakeBy(at);
    }

    /** Wake @p consumer by every marked cycle. */
    void wakeOnMark(Steppable *consumer) { sleeper_ = consumer; }

    /**
     * Make room for flits that take @p flight cycles: grow to the
     * smallest power of two above it. Returns true when the wheel
     * grew, which empties it; the owner then re-registers every
     * attached channel (Channel::watchArrivals()).
     */
    bool fit(int flight);

    /** Slot count (a power of two). */
    int slots() const { return static_cast<int>(mask_ + 1); }

    /** No port marked in any slot. */
    bool empty() const;

  private:
    /** Up to 16 slots (a cm5 link's flight) live in the wheel, so
     * building a machine allocates none; a slower link moves them
     * to the heap. */
    static constexpr int inlineSlots = 16;
    std::uint64_t inline_[inlineSlots] = {};
    std::vector<std::uint64_t> heap_;
    std::uint64_t *slots_ = inline_;
    Cycle mask_ = 0;
    Steppable *sleeper_ = nullptr;
};

/**
 * One direction of a physical link, plus its reverse credit wires.
 */
class Channel
{
  public:
    explicit Channel(const ChannelParams &params);

    //! @name Sender side
    //! @{
    /** Can a flit of class @p cls start serializing this cycle? */
    bool canPush(NetClass cls, Cycle now) const
    {
        if (downAt(now))
            return false;
        int slot = params_.timeSliced ? static_cast<int>(cls) : 0;
        return nextFree_[slot] <= now;
    }
    /** Can a flit of either class start serializing this cycle? */
    bool canPushAny(Cycle now) const
    {
        if (downAt(now))
            return false;
        return nextFree_[0] <= now ||
               (params_.timeSliced && nextFree_[1] <= now);
    }
    /** Begin transmitting @p flit; requires canPush(). */
    void push(const Flit &flit, Cycle now);
    /** The first cycle class @p cls's serializer is free (canPush()
     * from then on, outside down windows). */
    Cycle freeAt(NetClass cls) const
    {
        return nextFree_[params_.timeSliced ? static_cast<int>(cls) : 0];
    }
    //! @}

    //! @name Receiver side
    //! @{
    /** Is a fully received flit available at cycle @p now? */
    bool hasFlit(Cycle now) const
    {
        return !flits_.empty() && flits_.front().first <= now;
    }
    /** Remove and return the next received flit. */
    Flit pop(Cycle now);
    /** The cycle the oldest flit in flight becomes visible
     * (neverCycle when none is). */
    Cycle nextArrival() const
    {
        return flits_.empty() ? neverCycle : flits_.front().first;
    }
    //! @}

    //! @name Credit path (receiver -> sender)
    //! @{
    /** Return one buffer-slot credit for virtual channel @p vc. */
    void pushCredit(int vc, Cycle now);
    /** Is a credit visible at cycle @p now? */
    bool hasCredit(Cycle now) const
    {
        return !credits_.empty() && credits_.front().first <= now;
    }
    /** Remove and return the next credit's VC index. */
    int popCredit(Cycle now);
    /** The cycle the oldest queued credit becomes visible (neverCycle
     * when none is queued). */
    Cycle nextCredit() const
    {
        return credits_.empty() ? neverCycle : credits_.front().first;
    }
    //! @}

    //! @name Pending-work bits
    //! @{
    /**
     * Mark bit @p bit of @p wheel at the arrival cycle of every flit
     * in flight now and of every later push(). The consumer owns the
     * wheel and has fit() it to flightCycles().
     */
    void watchArrivals(ArrivalWheel *wheel, int bit);
    /**
     * Keep bit @p bit of @p *mask set exactly while credits are
     * queued: pushCredit() sets it and the popCredit() that empties
     * the queue clears it. The sender owns the mask and walks it
     * instead of polling every output port.
     */
    void watchCredits(std::uint64_t *mask, int bit);
    /** Wake @p sender by the cycle each pushCredit() becomes
     * visible. */
    void wakeOnCredit(Steppable *sender) { creditSleeper_ = sender; }
    //! @}

    /** Cycles from push() until the flit is visible. */
    int flightCycles() const;

    /** Flits currently in flight (pushed, not yet popped). */
    int inFlight() const { return static_cast<int>(flits_.size()); }

    /**
     * Is any serializer slot occupied at cycle @p now? A flit pushed
     * at cycle t holds its slot through t + cyclesPerFlit - 1, so
     * this is true for exactly the cycles the link is transmitting
     * (the congestion observatory's "busy" state).
     */
    bool busyAt(Cycle now) const
    {
        for (Cycle f : nextFree_)
            if (f > now)
                return true;
        return false;
    }

    /**
     * Credit-discipline bound on in-flight flits: the consumer's
     * total buffer capacity (VCs x depth). Set by whoever attaches
     * the consumer; 0 means unknown/unbounded. push() panics when
     * the bound is exceeded -- in release builds too, since a
     * channel over capacity means the credit protocol is broken.
     */
    void setCapacityFlits(int capacity) { capacityFlits_ = capacity; }
    int capacityFlits() const { return capacityFlits_; }

    const ChannelParams &params() const { return params_; }

    /** Total flits ever pushed (bandwidth accounting). */
    std::uint64_t totalFlits() const { return totalFlits_; }
    /** Flits ever pushed for one logical network (telemetry). */
    std::uint64_t classFlits(NetClass cls) const
    {
        return classFlits_[static_cast<int>(cls)];
    }

    //! @name Fault injection: link-down windows
    //! @{
    /**
     * Declare the link down in [from, until); until == 0 means down
     * permanently. While down the channel refuses new flits
     * (canPush() is false) but keeps delivering flits and credits
     * already in flight, matching a cable pulled mid-transfer after
     * the last word cleared the serializer.
     */
    void addDownWindow(Cycle from, Cycle until);
    /** Has any down window been declared (past, present or
     * future)? */
    bool hasDownWindows() const { return !down_.empty(); }
    /** Is the link inside a down window at cycle @p now? */
    bool downAt(Cycle now) const
    {
        for (const DownWindow &w : down_)
            if (now >= w.from && (w.until == 0 || now < w.until))
                return true;
        return false;
    }
    //! @}

  private:
    int classRate(NetClass cls) const;

    /** [from, until) link outage; until == 0 = permanent. */
    struct DownWindow
    {
        Cycle from = 0;
        Cycle until = 0;
    };

    ChannelParams params_;
    std::vector<DownWindow> down_;
    /** watchArrivals()/watchCredits()/wakeOnCredit() targets; null
     * when unwatched. */
    ArrivalWheel *wheel_ = nullptr;
    std::uint64_t *creditMask_ = nullptr;
    Steppable *creditSleeper_ = nullptr;
    std::uint64_t wheelBit_ = 0;
    std::uint64_t creditBit_ = 0;
    /** Serializer next-free time; [0] shared or per class. */
    Cycle nextFree_[numNetClasses] = {0, 0};
    Ring<std::pair<Cycle, Flit>> flits_;
    Ring<std::pair<Cycle, int>> credits_;
    std::uint64_t totalFlits_ = 0;
    std::uint64_t classFlits_[numNetClasses] = {0, 0};
    int capacityFlits_ = 0;
};

} // namespace nifdy

#endif // NIFDY_NET_CHANNEL_HH
