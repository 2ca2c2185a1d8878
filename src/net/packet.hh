/**
 * @file
 * Packets, flits, and the packet pool.
 *
 * Packets are the protocol-visible unit (what NIFDY admits, acks,
 * and reorders). Flits are the unit of motion inside the network:
 * one flit is one 32-bit word (the paper's flit size), and a flit
 * crosses a link in flitBits/linkBits cycles.
 */

#ifndef NIFDY_NET_PACKET_HH
#define NIFDY_NET_PACKET_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/types.hh"

namespace nifdy
{

class Probes;

/** Wire format categories. */
enum class PacketType : std::uint8_t
{
    scalar, //!< ordinary data packet, individually acked
    bulk,   //!< bulk-dialog data packet, windowed acks
    ack,    //!< NIFDY acknowledgment, consumed by the receiving NIC
    coll    //!< NIC-resident collective packet (src/coll), ctrlOnly
};

const char *packetTypeName(PacketType t);

/**
 * A network packet. Header fields mirror the paper's Section 2
 * protocol: every packet carries its source id (so the destination
 * can return an ack); bulk packets replace the source id bits with a
 * {sequence number, dialog number} pair.
 */
struct Packet
{
    /** Unique id, for tracking and debugging. */
    std::uint64_t id = 0;

    NodeId src = invalidNode;
    NodeId dst = invalidNode;
    NetClass netClass = NetClass::request;
    PacketType type = PacketType::scalar;

    /** Total on-wire size in bytes, header included. */
    int sizeBytes = 0;

    //! @name NIFDY protocol header bits (Section 2.1.2, Section 6)
    //! @{
    bool bulkRequest = false; //!< sender asks for a bulk dialog
    bool bulkExit = false;    //!< last packet of a bulk dialog
    bool noAck = false;       //!< Section 6.1: no ack required
    bool expectsReply = false; //!< Section 6.1: hold my ack for the
                               //!< application reply to carry
    bool piggyAck = false;     //!< Section 6.1: this data packet
                               //!< carries an ack (fields below)
    bool dupBit = false;      //!< Section 6.2: retransmission parity
    std::int16_t dialog = -1; //!< bulk dialog number at the receiver
    std::int16_t seq = -1;    //!< bulk sequence number (mod 2W space)
    /**
     * Sender incarnation epoch. A node starts at epoch 0 and bumps
     * it on every restart after a crash; receivers reject packets
     * stamped with an epoch older than the newest one seen from that
     * source and resync their duplicate-filter state when a newer
     * epoch appears. Real hardware would carry a few bits and rely
     * on bounded crash-detection latency; the model carries the full
     * counter so arbitrarily late stale packets can never alias.
     */
    std::uint32_t srcEpoch = 0;
    //! @}

    //! @name Ack payload (valid when type == ack)
    //! @{
    bool ackGrantsBulk = false;  //!< receiver grants a bulk dialog
    bool ackRejectsBulk = false; //!< receiver refuses a bulk dialog
    std::int16_t ackDialog = -1; //!< dialog this (bulk) ack refers to
    std::int16_t ackSeq = -1;    //!< cumulative sequence acked
    std::int16_t ackWindow = 0;  //!< window size granted with a dialog
    /**
     * Cumulative count of bulk packets delivered (monotone form of
     * ackSeq). Hardware would reconstruct this from the W-bounded
     * sequence number; carrying the monotone count keeps the model
     * robust against ack reordering on multipath networks.
     */
    std::int64_t ackTotal = -1;
    /** Incarnation epoch of the data packet this ack answers; the
     * original sender discards acks whose epoch is not its own. */
    std::uint32_t ackEpoch = 0;
    //! @}

    //! @name Protocol-internal flags
    //! @{
    bool ctrlOnly = false;  //!< consumed by the NIC, never delivered
    bool ackIssued = false; //!< an ack for this packet went out
    /**
     * Monotone bulk send index (seq is its mod-2W compression on
     * the wire). The protocol logic works on the monotone form so
     * that arbitrarily late retransmissions can never alias a later
     * window epoch; real hardware gets the same effect from its
     * bounded-delay assumptions.
     */
    std::int64_t bulkIndex = -1;
    /**
     * Monotone per-(source, destination) scalar index for the
     * Section 6.2 duplicate filter; the header's dupBit is its
     * 1-bit compression.
     */
    std::int64_t scalarIndex = -1;
    //! @}

    //! @name Collective header (valid when type == coll; src/coll)
    //! @{
    std::int32_t collSeq = -1;    //!< collective sequence number
    std::uint8_t collKind = 0;    //!< CollKind on the wire
    std::uint8_t collOp = 0;      //!< CollOp on the wire
    std::int32_t collRound = 0;   //!< contribution (re)send round
    std::int32_t collCount = 0;   //!< participants combined below
    std::int64_t collValue = 0;   //!< combined subtree value / result
    bool collDegraded = false;    //!< combined on a pruned tree
    //! @}

    //! @name Message-layer bookkeeping (not on the wire)
    //! @{
    std::uint32_t msgId = 0; //!< which application message
    std::int32_t msgSeq = 0; //!< packet index within the message
    std::int32_t msgLen = 1; //!< packets in the message
    std::int32_t payloadWords = 0; //!< useful payload carried
    //! @}

    /**
     * Fault-injection marker: the packet was corrupted on an
     * internal link. Flits keep flowing (flow control is
     * unaffected); the receiving NIC's CRC check discards the
     * packet, which the Section 6.2 retransmission then repairs.
     */
    bool corrupted = false;

    //! @name Retransmission provenance (Section 6.2, not on wire)
    //! @{
    /** Original packet id when this is a retransmission clone. */
    std::uint64_t cloneOf = 0;
    /** Retransmission attempt number (0 = first transmission). */
    std::int32_t attempt = 0;
    //! @}

    //! @name Instrumentation
    //! @{
    Cycle createdAt = 0;  //!< handed to the NIC by the processor
    Cycle injectedAt = 0; //!< first flit entered the network
    /** Piggyback scheme: queued acks wait until this cycle for a
     * reply to ride on before going out standalone. */
    Cycle holdUntil = 0;
    //! @}

    /** Topology scratch (e.g. torus dateline state); reset on inject. */
    std::uint32_t routeScratch = 0;

    /** Lifecycle identity: the original packet's id for a
     * retransmission clone, else id. */
    std::uint64_t rootId() const { return cloneOf ? cloneOf : id; }

    /** A cumulative bulk ack: it names a dialog and a sequence
     * number (a standalone ack only; piggybacks are scalar acks). */
    bool isBulkAck() const { return ackDialog >= 0 && ackSeq >= 0; }

    /** A dialog reject: the reject bit plus a dialog number, which
     * answers a bulk packet for a dialog the receiver does not have
     * (a bulk-request reject names no dialog). */
    bool isDialogReject() const
    {
        return ackRejectsBulk && ackDialog >= 0;
    }

    /** Number of flits this packet serializes into. */
    int numFlits(int flitBytes) const
    {
        return (sizeBytes + flitBytes - 1) / flitBytes;
    }

    std::string toString() const;
};

/**
 * The wire form of a monotone bulk index (Section 2.1.2): its residue
 * mod 2W for a dialog window of @p window packets. Index -1 (nothing
 * delivered yet, in a cumulative ack) encodes as 2W - 1.
 */
inline std::int16_t
bulkSeq(std::int64_t index, int window)
{
    const std::int64_t space = 2 * static_cast<std::int64_t>(window);
    return static_cast<std::int16_t>((index % space + space) % space);
}

/**
 * One flit in motion. Flits reference their packet; the packet is
 * released back to the pool by whoever consumes the tail flit at the
 * final destination.
 */
struct Flit
{
    Packet *pkt = nullptr;
    bool head = false;
    bool tail = false;
    /** Virtual channel on the link currently being traversed. */
    std::int8_t vc = 0;

    bool valid() const { return pkt != nullptr; }
};

/**
 * Freelist allocator for packets. A simulation allocates all its
 * packets from one pool; conservation (allocated == released at the
 * end) is checked in tests.
 */
class PacketPool
{
  public:
    PacketPool();
    ~PacketPool() = default;
    PacketPool(const PacketPool &) = delete;
    PacketPool &operator=(const PacketPool &) = delete;

    /** Allocate a zeroed packet with a fresh id. */
    Packet *alloc();

    /** Return a packet to the freelist. */
    void release(Packet *pkt);

    /** Fire alloc/release events on @p probes (an experiment's bus). */
    void setProbes(const Probes *probes) { probes_ = probes; }

    std::uint64_t allocated() const { return allocated_; }
    std::uint64_t released() const { return released_; }
    /** Packets currently alive (allocated - released). */
    std::uint64_t live() const { return allocated_ - released_; }

  private:
    /** Backing storage; packets are recycled through freelist_. */
    std::vector<std::unique_ptr<Packet>> arena_;
    std::vector<Packet *> freelist_;
    const Probes *probes_;
    std::uint64_t nextId_ = 1;
    std::uint64_t allocated_ = 0;
    std::uint64_t released_ = 0;
};

} // namespace nifdy

#endif // NIFDY_NET_PACKET_HH
