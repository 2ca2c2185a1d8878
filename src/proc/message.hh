/**
 * @file
 * Message layer: segments application messages into packets and
 * models the software cost structure of Section 2.2.
 *
 * Every packet has a fixed wire size. The header always carries the
 * destination, type, and (per the NIFDY requirement) the source id;
 * with out-of-order delivery each packet must additionally carry a
 * bookkeeping word (sequence/offset) in its payload, while in-order
 * delivery needs it only in the first packet of a transfer -- this
 * is the paper's "increased payload allowed by in-order delivery".
 * Out-of-order delivery also costs extra receive-side software time
 * per packet (reconstructing order cost up to 30% of transfer time
 * on the CM-5 [KC94]).
 */

#ifndef NIFDY_PROC_MESSAGE_HH
#define NIFDY_PROC_MESSAGE_HH

#include "proc/processor.hh"
#include "sim/ring.hh"

namespace nifdy
{

/** Message-layer configuration. */
struct MessageParams
{
    int packetWords = 8;  //!< total wire size, header included
    int headerWords = 2;  //!< routing/type/source header
    int bookkeepingWords = 1; //!< per-packet offset word when OOO
    /** Does the NIC + network combination deliver in order? */
    bool inOrder = false;
    /** Extra receive cycles per packet when reordering in software. */
    int reorderCost = 18;
    /** Request a bulk dialog for messages of at least this many
     * packets (0 = never request). */
    int bulkThreshold = 3;
};

/**
 * Per-node message layer: a queue of outgoing messages pumped one
 * packet at a time through the processor, plus receive accounting.
 */
class MessageLayer
{
  public:
    MessageLayer(Processor &proc, PacketPool &pool,
                 const MessageParams &params);

    const MessageParams &params() const { return params_; }

    /** Payload words the i-th packet of a message can carry. */
    int payloadPerPacket(bool firstPacket) const;

    /** Packets needed to move @p words of payload. */
    int packetsForWords(int words) const;

    //! @name Sending
    //! @{
    /** Queue a message carrying @p words of payload. */
    void enqueueMessage(NodeId dst, int words, NetClass cls);

    /** Queue a message of exactly @p packets full packets. */
    void enqueuePackets(NodeId dst, int packets, NetClass cls);

    /**
     * Try to hand the next packet to the NIC (charges tSend via the
     * processor). @return true if a packet went out this tick.
     */
    bool pump(Cycle now);

    /** All queued messages fully handed to the NIC? */
    bool allSent() const { return queue_.empty() && !staged_; }

    /** Messages waiting (including the one being segmented). */
    int backlog() const
    {
        return static_cast<int>(queue_.size()) + (staged_ ? 1 : 0);
    }

    /**
     * The node crashed: release the staged packet (it would leak
     * otherwise -- built but never handed to the NIC) and forget the
     * outgoing queue. A restarted node's application starts cold.
     */
    void crashReset(Cycle now);
    //! @}

    //! @name Receiving
    //! @{
    /**
     * Account for a received packet (charging the reorder penalty
     * when applicable), release it, and return its payload words.
     */
    int accept(Packet *pkt, Cycle now);

    std::uint64_t wordsReceived() const { return wordsReceived_; }
    std::uint64_t packetsSent() const { return packetsSent_; }
    //! @}

  private:
    struct PendingMsg
    {
        NodeId dst;
        int packets;
        int words; //!< payload remaining
        NetClass cls;
        int seq = 0; //!< next packet index
        std::uint32_t id;
    };

    Packet *buildNext(PendingMsg &msg, Cycle now);

    Processor &proc_;
    PacketPool &pool_;
    MessageParams params_;
    Ring<PendingMsg> queue_;
    Packet *staged_ = nullptr; //!< built but NIC was full
    std::uint32_t nextMsgId_ = 1;
    std::uint64_t packetsSent_ = 0;
    std::uint64_t wordsReceived_ = 0;
};

} // namespace nifdy

#endif // NIFDY_PROC_MESSAGE_HH
