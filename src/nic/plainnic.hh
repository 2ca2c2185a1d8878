/**
 * @file
 * Baseline NICs without the NIFDY protocol.
 *
 * BufferedNic is a protocol-free NIC with a configurable outgoing
 * queue and arrivals FIFO: the paper's "buffers only" control, which
 * gets the same total buffer budget as the NIFDY unit it is compared
 * against (redistributed for best effect). PlainNic is the "no
 * NIFDY" baseline: one outgoing packet register and a two-packet
 * arrivals FIFO.
 */

#ifndef NIFDY_NIC_PLAINNIC_HH
#define NIFDY_NIC_PLAINNIC_HH

#include "nic/nic.hh"
#include "sim/ring.hh"

namespace nifdy
{

/** Protocol-free NIC: FIFO in, FIFO out, no admission control. */
class BufferedNic : public Nic
{
  public:
    /**
     * @param outQueue outgoing queue capacity in packets.
     * (The arrivals FIFO size comes from NicParams::arrivalFifo.)
     */
    BufferedNic(NodeId node, const Network::NodePorts &ports,
                const NicParams &params, PacketPool &pool,
                int outQueue);

    bool canSend(const Packet &pkt) const override;
    void send(Packet *pkt, Cycle now) override;
    bool transitIdle() const override;

    const char *profileClass() const override { return "plain-nic"; }

    int outQueueCapacity() const { return outQueue_; }

  protected:
    Packet *nextToInject(NetClass cls, Cycle now) override;
    /** The send queue's front packet is of class @p cls. */
    bool injectQueued(NetClass cls) const override;
    /** Every packet (an ack here is a protocol error). */
    bool needsArrivalSlot(const Packet &pkt) const override;
    void onPacketDelivered(Packet *pkt, Cycle now) override;
    void onCrash(Cycle now) override;
    /** No admission protocol: every queued packet is blamed on
     * injection backpressure (the latency-anatomy layer). */
    void classifyStalls(Cycle now) override;

  private:
    int outQueue_;
    Ring<Packet *> sendQueue_;
};

/** The "no NIFDY" minimal interface. */
class PlainNic : public BufferedNic
{
  public:
    PlainNic(NodeId node, const Network::NodePorts &ports,
             NicParams params, PacketPool &pool);
};

} // namespace nifdy

#endif // NIFDY_NIC_PLAINNIC_HH
