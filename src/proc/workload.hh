/**
 * @file
 * Workload interface: the program running on one processor. The
 * processor calls tick() whenever it is not busy; a tick performs
 * at most one costed action (send, poll, compute).
 */

#ifndef NIFDY_PROC_WORKLOAD_HH
#define NIFDY_PROC_WORKLOAD_HH

#include "proc/barrier.hh"
#include "proc/message.hh"
#include "proc/processor.hh"
#include "sim/rng.hh"

namespace nifdy
{

class Workload
{
  public:
    Workload(Processor &proc, MessageLayer &msg, Barrier *barrier,
             std::uint64_t seed);
    virtual ~Workload() = default;

    /** Perform at most one action; called when the CPU is free. */
    virtual void tick(Cycle now) = 0;

    /** Has this node finished its part of the computation? */
    virtual bool done() const = 0;

    std::uint64_t packetsAccepted() const { return packetsAccepted_; }

  protected:
    /** Observation hook, fired before a received packet is freed. */
    virtual void onReceive(const Packet &pkt, Cycle now);

    /**
     * If a packet is waiting, receive it (tReceive + possible
     * reorder cost) and return true.
     */
    bool receiveOne(Cycle now);

    /** A charged poll that found nothing (or whatever it found). */
    void pollNetwork(Cycle now);

    NodeId me() const { return proc_.id(); }

    Processor &proc_;
    MessageLayer &msg_;
    Barrier *barrier_;
    Rng rng_; //!< traffic decisions (deterministic across configs)

    std::uint64_t packetsAccepted_ = 0;
    std::uint64_t wordsAccepted_ = 0;
};

} // namespace nifdy

#endif // NIFDY_PROC_WORKLOAD_HH
