/**
 * @file
 * Abstract network interface.
 *
 * A Nic sits between one processor and one network attachment
 * point. The base class owns the flit-level machinery that every
 * NIC variant shares -- serializing outgoing packets onto the
 * injection channel (honoring router-side credits) and reassembling
 * incoming flits per virtual channel -- and defers protocol policy
 * (which packet to inject next, what to do with a delivered packet)
 * to subclasses: PlainNic, BufferedNic, NifdyNic.
 */

#ifndef NIFDY_NIC_NIC_HH
#define NIFDY_NIC_NIC_HH

#include <cstdint>
#include <vector>

#include "net/topology.hh"
#include "sim/kernel.hh"
#include "sim/ring.hh"
#include "sim/stats.hh"

namespace nifdy
{

class CollEngine;

/** Parameters shared by all NIC variants. */
struct NicParams
{
    int flitBytes = 4;
    /** Arrivals FIFO capacity, in packets. */
    int arrivalFifo = 2;
    /** VCs per class at the attached router (matches the network). */
    int vcsPerClass = 1;
    /** Per-VC flit buffer depth on the ejection side. */
    int ejectDepth = 2;
    std::uint64_t seed = 1;
};

class Nic : public Steppable
{
  public:
    Nic(NodeId node, const Network::NodePorts &ports,
        const NicParams &params, PacketPool &pool);
    ~Nic() override = default;
    /** The ejection channel points at this NIC's arrival wheel. */
    Nic(const Nic &) = delete;
    Nic &operator=(const Nic &) = delete;

    //! @name Processor-side API
    //! @{
    /** Can the processor hand over another outgoing packet? */
    virtual bool canSend(const Packet &pkt) const = 0;

    /** Hand an outgoing packet to the NIC. Requires canSend(). */
    virtual void send(Packet *pkt, Cycle now) = 0;

    /** Next received packet without removing it (nullptr if none). */
    Packet *peekReceive();

    /** Pop the next received packet (nullptr if none); a popped
     * packet wakes the NIC (its ack and window may go). */
    Packet *pollReceive(Cycle now);

    /** Packets waiting in the arrivals FIFO. */
    int arrivalsPending() const
    {
        return static_cast<int>(arrivals_.size());
    }

    /**
     * True when the NIC holds no outgoing or in-flight state and
     * nothing waits in the arrivals FIFO.
     */
    bool idle() const { return arrivals_.empty() && transitIdle(); }

    /**
     * True when nothing is queued for sending or moving through
     * the NIC (packets parked in the arrivals FIFO don't count:
     * they are waiting for the processor, not for the network).
     */
    virtual bool transitIdle() const;

    /**
     * Optional per-destination injection counters (Figure-5 style
     * instrumentation): when set, the NIC increments slot [dst] as
     * each data packet's head flit enters the network.
     */
    void setInjectBoard(std::vector<std::uint32_t> *board)
    {
        injectBoard_ = board;
    }

    /**
     * Attach a NIC-resident collective engine (coll.offload=nic).
     * The NIC pumps it every cycle, drains its outbox with strict
     * injection priority over its own traffic, routes delivered
     * PacketType::coll packets into it, and forwards crash/restart.
     */
    void setCollEngine(CollEngine *eng) { coll_ = eng; }
    CollEngine *collEngine() const { return coll_; }
    //! @}

    /** Run the pumps that may move a flit, then sleep until
     * nextWork(). */
    void step(Cycle now) override;

    /**
     * The first cycle after @p now on which step() may act: the
     * eject channel's next arrival, and for each class that is
     * streaming or has something queued (injectQueued()) the cycle
     * its serializer frees or, while it holds no credit, the next
     * credit. A NIC with held flits, a collective engine, or the
     * anatomy or the congestion observer attached acts (or records)
     * every cycle. Subclasses add their own deadlines.
     *
     * Wakes before it: the eject wheel's marks and returned credits
     * (Channel), and send(), pollReceive(), crash() and restart().
     */
    virtual Cycle nextWork(Cycle now) const;

    //! @name Endpoint fault domain (fail-stop crash / cold restart)
    //! @{
    /**
     * Fail-stop: discard the arrivals FIFO and all subclass protocol
     * state (via onCrash()), then black-hole every packet the fabric
     * delivers while down. The flit pumps keep running -- a crashed
     * endpoint that stopped returning credits would wedge the whole
     * fabric -- and a packet whose head flit already entered the
     * network finishes its wormhole (a stalled partial wormhole
     * would block the injection channel forever; real links bound
     * this with link-level abort, which packet-granular flits cannot
     * express).
     */
    void crash(Cycle now);

    /**
     * Cold restart: protocol state stays empty and the incarnation
     * epoch is bumped, so peers can tell this incarnation's packets
     * from stale ones.
     */
    void restart(Cycle now);

    bool crashed() const { return crashed_; }

    /** Incarnation epoch: 0 at construction, +1 per restart. Every
     * packet's head flit is stamped with it on injection. */
    std::uint32_t epoch() const { return epoch_; }
    //! @}

    NodeId node() const { return node_; }
    /** Attach the kernel for activity reporting, and its probe bus
     * for observer events. */
    void setKernel(Kernel *k)
    {
        kernel_ = k;
        probes_ = &k->probes();
    }

    //! @name Delivery statistics (data packets only)
    //! @{
    std::uint64_t packetsDelivered() const { return packetsDelivered_; }
    std::uint64_t wordsDelivered() const { return wordsDelivered_; }
    std::uint64_t packetsSent() const { return packetsSent_; }
    const Distribution &latency() const { return latency_; }
    //! @}

    /** pumpEject() and pumpInject() runs (bench_kernel's work.*
     * metrics). */
    std::uint64_t pumpRuns() const { return pumpRuns_; }

  protected:
    //! @name Protocol hooks for subclasses
    //! @{
    /**
     * Pick the next packet to start injecting for class @p cls, or
     * nullptr. Ownership passes to the injection machinery; the
     * packet leaves the subclass's queues.
     */
    virtual Packet *nextToInject(NetClass cls, Cycle now) = 0;

    /**
     * Could nextToInject(@p cls) return a packet? When this says no
     * for both classes, step() skips the injection pump on cycles
     * with no packet streaming, and nextWork() ignores the class
     * while it is not streaming, so a false answer must mean
     * nextToInject(@p cls) would return nullptr without side
     * effects. Default: always maybe.
     */
    virtual bool injectQueued(NetClass cls) const;

    /**
     * Does @p pkt need an arrivals-FIFO slot before its head flit is
     * accepted? Asked once per packet at its head flit; the base
     * reserves the slot (or withholds credits while the FIFO is full)
     * and releases it at the tail, just before onPacketDelivered().
     */
    virtual bool needsArrivalSlot(const Packet &pkt) const = 0;

    /**
     * Full packet reassembled. The subclass routes it: arrivals
     * FIFO, reorder buffer, or (for acks) internal consumption.
     */
    virtual void onPacketDelivered(Packet *pkt, Cycle now) = 0;

    /** The processor popped @p pkt from the arrivals FIFO. */
    virtual void onProcessorAccept(Packet *pkt, Cycle now);

    /** Crash teardown hook: release every queued/booked packet and
     * clear protocol state. The base class has already emptied the
     * arrivals FIFO. */
    virtual void onCrash(Cycle now);

    /**
     * Latency-anatomy hook: attribute every queued-but-not-injected
     * data packet to its current StallCause (Probes::stall).
     * Called once per cycle from step(), only while an Anatomy is
     * attached to the probe bus, so the default off configuration
     * pays nothing.
     */
    virtual void classifyStalls(Cycle now);
    //! @}

    /** Queue a fully reassembled data packet for the processor. */
    void pushArrival(Packet *pkt, Cycle now);

    /**
     * FIFO occupancy including reserved slots. With multiple
     * ejection VCs, several packets can be in reassembly at once;
     * each holds the slot its head reserved, otherwise two heads
     * could race for the last one.
     */
    bool arrivalsFull() const
    {
        return static_cast<int>(arrivals_.size()) + reservedArrivals_ >=
               params_.arrivalFifo;
    }

    /** Flits still being serialized or reassembled? */
    bool pumpsIdle() const;

    /** Is class @p cls's injection stream occupied by a collective
     * packet (last cycle's coll-priority grab)? Lets subclass
     * classifyStalls() blame StallCause::collDefer instead of a
     * generic injectStall. */
    bool injectBusyWithColl(NetClass cls) const;

    void noteActivity()
    {
        if (kernel_)
            kernel_->noteActivity();
    }

    NodeId node_;
    NicParams params_;
    PacketPool &pool_;
    /** The kernel's probe bus once setKernel() ran. */
    const Probes *probes_ = &noProbes;

    /** Discard a packet delivered to (or stranded on) a crashed
     * node: terminal lifecycle drop + pool release. */
    void crashDiscard(Packet *pkt, Cycle now, const char *why);

  private:
    struct InStream;

    void pumpInject(Cycle now);
    void pumpEject(Cycle now);

    /** May @p is start reassembling @p pkt? A crashed node accepts
     * it unconditionally and marks the stream for black-holing; a
     * packet that needsArrivalSlot() waits for a free slot and
     * reserves it on the stream. */
    bool acceptArrival(const Packet &pkt, InStream &is);

    /** Route a packet whose tail left @p is: release its slot, then
     * black-hole it when a crashed incarnation accepted it, else
     * hand it to the collective engine or onPacketDelivered(). */
    void deliverArrival(Packet *pkt, InStream &is, Cycle now);

    Network::NodePorts ports_;
    Kernel *kernel_ = nullptr;
    CollEngine *coll_ = nullptr;

    //! @name Injection state
    //! @{
    std::vector<int> injectCredits_; //!< per router input VC
    struct OutStream
    {
        Packet *pkt = nullptr;
        int flitsLeft = 0;
        int totalFlits = 0;
    };
    OutStream outStream_[numNetClasses];
    //! @}

    //! @name Ejection state
    //! @{
    struct InStream
    {
        Ring<Flit> buf;          //!< raw flits, credit-bounded
        Packet *assembling = nullptr;
        int flitsSeen = 0;
        /** The assembling packet holds an arrivals-FIFO slot. */
        bool reserved = false;
        /** The assembling packet was accepted by (or caught
         * mid-reassembly by) a crash: its tail is discarded. */
        bool blackholed = false;
    };
    std::vector<InStream> inStreams_; //!< per ejection VC
    /** Flits held in inStreams_ (a head waiting for a slot). */
    int heldFlits_ = 0;
    /** Bit 0 marks the cycles a flit becomes visible on the
     * ejection channel. */
    ArrivalWheel ejectWheel_;
    Ring<Packet *> arrivals_;
    int reservedArrivals_ = 0;
    std::vector<std::uint32_t> *injectBoard_ = nullptr;
    //! @}

    //! @name Endpoint fault state
    //! @{
    bool crashed_ = false;
    std::uint32_t epoch_ = 0;
    //! @}

    //! @name Stats
    //! @{
    std::uint64_t packetsDelivered_ = 0;
    std::uint64_t wordsDelivered_ = 0;
    std::uint64_t packetsSent_ = 0;
    Distribution latency_;
    std::uint64_t pumpRuns_ = 0;
    //! @}
};

} // namespace nifdy

#endif // NIFDY_NIC_NIC_HH
