/**
 * @file
 * Tests for the Section 2.4 analytic parameter model, including the
 * paper's own worked examples (8x8 wormhole mesh, 64-node 4-ary
 * fat tree).
 */

#include <stdexcept>

#include <gtest/gtest.h>

#include "nic/nifdyparams.hh"

namespace nifdy
{
namespace
{

/** The paper's Section 2.4.3 example constants. */
NetModel
paperModel(double latA, double latB)
{
    NetModel m;
    m.tSend = 40;
    m.tReceive = 60;
    m.tAckProc = 4;
    m.latA = latA;
    m.latB = latB;
    return m;
}

TEST(Params, RoundTripFormula)
{
    // Mesh example: T_lat(d) = 4d + 14, max d = 14 -> 144 cycles.
    NetModel m = paperModel(4, 14);
    EXPECT_DOUBLE_EQ(latency(m, 14), 70.0);
    EXPECT_DOUBLE_EQ(roundTrip(m, 14), 144.0);
    // Average distance 6 -> 80 cycles.
    EXPECT_DOUBLE_EQ(roundTrip(m, 6), 80.0);
}

TEST(Params, FatTreeRoundTrip)
{
    // Fat tree example: T_lat = 5d + 2, d = 6 -> 32+32+4 = 68.
    NetModel m = paperModel(5, 2);
    EXPECT_DOUBLE_EQ(roundTrip(m, 6), 68.0);
}

TEST(Params, RawBandwidthBoundedByReceive)
{
    NetModel m = paperModel(4, 14);
    // 32-byte packets, 60-cycle receive overhead dominates.
    EXPECT_DOUBLE_EQ(rawBandwidth(m, 32), 32.0 / 60.0);
    m.tLink = 100;
    EXPECT_DOUBLE_EQ(rawBandwidth(m, 32), 32.0 / 100.0);
}

TEST(Params, ScalarBandwidthLimitedByRoundTrip)
{
    NetModel m = paperModel(4, 14);
    // At distance 14 the 144-cycle round trip dominates the 60-cycle
    // receive overhead.
    EXPECT_DOUBLE_EQ(scalarBandwidth(m, 32, 14), 32.0 / 144.0);
    // At distance 1 the round trip (40) hides under T_receive.
    EXPECT_DOUBLE_EQ(scalarBandwidth(m, 32, 1), 32.0 / 60.0);
}

TEST(Params, WindowForCombinedAcksMatchesPaper)
{
    // Paper: W >= 2(144/60 - 1) ~= 2.8 -> "at least 2 packets,
    // possibly 3 or 4".
    NetModel m = paperModel(4, 14);
    int w = windowForCombinedAcks(m, 14);
    EXPECT_GE(w, 2);
    EXPECT_LE(w, 4);
}

TEST(Params, WindowForPerPacketAcks)
{
    NetModel m = paperModel(4, 14);
    // W >= 144/60 -> 3.
    EXPECT_EQ(windowForPerPacketAcks(m, 14), 3);
    // Short distances need only 1.
    EXPECT_EQ(windowForPerPacketAcks(m, 1), 1);
}

TEST(Params, ScalarSufficiencyFollowsLatency)
{
    NetModel mesh = paperModel(4, 14);
    EXPECT_FALSE(scalarSufficient(mesh, 14));
    EXPECT_TRUE(scalarSufficient(mesh, 3)); // 2(12+14)+4 = 56 < 60
    NetModel ft = paperModel(5, 2);
    EXPECT_FALSE(scalarSufficient(ft, 6)); // 68 > 60, marginal
}

TEST(Params, SuggestRestrictiveForLowVolume)
{
    NetModel m = paperModel(4, 14);
    NifdyConfig cfg = suggestConfig(m, 14, 8.0, 8.0 / 64.0);
    EXPECT_LE(cfg.opt, 4);
    EXPECT_LE(cfg.pool, 4);
    EXPECT_EQ(cfg.dialogs, 1);
    EXPECT_GE(cfg.window, 2);
}

TEST(Params, SuggestGenerousForRoomyNetwork)
{
    NetModel m = paperModel(5, 2);
    NifdyConfig cfg = suggestConfig(m, 6, 40.0, 1.0);
    EXPECT_EQ(cfg.opt, 8);
    EXPECT_EQ(cfg.pool, 8);
}

TEST(Params, UndeliveredLatencyProbeIsFatal)
{
    // A 9-flit probe never leaves fattree-saf's first router (its
    // VC buffers hold 8 flits, and a store-and-forward head waits
    // for its tail): the fit fails loudly instead of reading an
    // empty arrivals FIFO.
    EXPECT_EQ(fitLatency("fattree-saf", 16, 32, 1).probes.size(), 4u);
    EXPECT_THROW(fitLatency("fattree-saf", 16, 33, 1), std::runtime_error);
}

TEST(Params, WindowsShrinkWithDistance)
{
    NetModel m = paperModel(5, 2);
    EXPECT_LE(windowForCombinedAcks(m, 2),
              windowForCombinedAcks(m, 12));
}

} // namespace
} // namespace nifdy
