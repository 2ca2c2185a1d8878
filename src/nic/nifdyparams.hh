/**
 * @file
 * The paper's Section 2.4 analytic model for choosing NIFDY
 * parameters from network characteristics: round-trip latency,
 * pairwise bandwidth bounds, and bulk window sizing -- and the
 * unloaded-latency probe that measures the model's T_lat(d) fit.
 */

#ifndef NIFDY_NIC_NIFDYPARAMS_HH
#define NIFDY_NIC_NIFDYPARAMS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "nic/nifdy.hh"

namespace nifdy
{

/** Table-1 network/software characteristics (all in cycles). */
struct NetModel
{
    double tSend = 40;     //!< processor send overhead
    double tReceive = 60;  //!< processor receive overhead
    double tAckProc = 4;   //!< NIFDY ack generate+process, both ends
    double tLink = 0;      //!< per-link serialization of one packet
    /** One-way latency fit T_lat(d) = latA * d + latB. */
    double latA = 0;
    double latB = 0;
};

/** One unloaded probe: node 0 sent one packet to @p dst. */
struct LatencyProbe
{
    NodeId dst = 0;
    int hops = 0;     //!< network distance 0 -> dst
    Cycle cycles = 0; //!< send to arrival
};

/** A measured T_lat(d) fit and the probes behind it. */
struct LatencyFit
{
    /** Table-1 defaults, with latA and latB fitted. */
    NetModel model;
    std::vector<LatencyProbe> probes;
};

/**
 * Measure T_lat(d) on a bare @p topology network of @p nodes with
 * protocol-free NICs: one @p packetBytes packet from node 0 to each
 * of nodes 1, 3, 7, ... in turn, through an otherwise empty
 * network, then the least-squares fit T_lat(d) = latA * d + latB.
 */
LatencyFit fitLatency(const std::string &topology, int nodes,
                      int packetBytes, std::uint64_t seed);

/** T_lat(d): one-way packet latency at distance d (Equation fit). */
double latency(const NetModel &m, int hops);

/** Equation 2: T_roundtrip(d) = 2 T_lat(d) + T_ackproc. */
double roundTrip(const NetModel &m, int hops);

/**
 * Equation 1: pairwise bandwidth bound without NIFDY,
 * L / max(T_send, T_receive, T_link) in bytes per cycle.
 */
double rawBandwidth(const NetModel &m, int packetBytes);

/**
 * Pairwise bandwidth with the basic (scalar) NIFDY protocol: one
 * packet per round trip, also bounded by Equation 1.
 */
double scalarBandwidth(const NetModel &m, int packetBytes, int hops);

/**
 * Equation 3: minimum window for full throughput with combined
 * acks (one ack per W/2 packets):
 *   W >= 2 (T_roundtrip / T_bottleneck - 1).
 */
int windowForCombinedAcks(const NetModel &m, int hops);

/**
 * Equation 4 (per-packet acks): W >= T_roundtrip / T_bottleneck.
 */
int windowForPerPacketAcks(const NetModel &m, int hops);

/**
 * Does the basic scalar protocol already saturate the pairwise
 * bottleneck at distance @p hops (so bulk dialogs only help
 * marginally)?
 */
bool scalarSufficient(const NetModel &m, int hops);

/**
 * Suggest a full NIFDY configuration for a network with the given
 * model and maximum distance, following Section 2.4.3's reasoning:
 * small volume / low bisection => restrictive O and B; round trip
 * above the receive overhead => bulk window per Equation 3.
 */
NifdyConfig suggestConfig(const NetModel &m, int maxHops,
                          double volumeWordsPerNode,
                          double bisectionRatio);

} // namespace nifdy

#endif // NIFDY_NIC_NIFDYPARAMS_HH
