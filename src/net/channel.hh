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
    /** Begin transmitting @p flit; requires canPush(). */
    void push(const Flit &flit, Cycle now);
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
    //! @}

    //! @name Pending-work bits
    //! @{
    /**
     * Keep bit @p bit of @p *mask set exactly while flits are in
     * flight on this channel: push() sets it and the pop() that
     * empties the queue clears it. The consuming router owns the
     * mask and walks it instead of polling every input port.
     */
    void watchFlits(std::uint64_t *mask, int bit);
    /** The same for queued credits, on the sending router's mask. */
    void watchCredits(std::uint64_t *mask, int bit);
    //! @}

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
    /** watchFlits()/watchCredits() targets; null when unwatched. */
    std::uint64_t *flitMask_ = nullptr;
    std::uint64_t *creditMask_ = nullptr;
    std::uint64_t flitBit_ = 0;
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
