/**
 * @file
 * Unit tests for Packet, Flit, and PacketPool.
 */

#include <gtest/gtest.h>

#include "net/packet.hh"

namespace nifdy
{
namespace
{

TEST(Packet, NumFlitsRoundsUp)
{
    Packet p;
    p.sizeBytes = 32;
    EXPECT_EQ(p.numFlits(4), 8);
    p.sizeBytes = 33;
    EXPECT_EQ(p.numFlits(4), 9);
    p.sizeBytes = 8;
    EXPECT_EQ(p.numFlits(4), 2);
    p.sizeBytes = 1;
    EXPECT_EQ(p.numFlits(4), 1);
}

TEST(Packet, DefaultsAreClean)
{
    Packet p;
    EXPECT_EQ(p.src, invalidNode);
    EXPECT_EQ(p.dst, invalidNode);
    EXPECT_EQ(p.type, PacketType::scalar);
    EXPECT_FALSE(p.bulkRequest);
    EXPECT_FALSE(p.bulkExit);
    EXPECT_FALSE(p.noAck);
    EXPECT_EQ(p.dialog, -1);
    EXPECT_EQ(p.seq, -1);
    EXPECT_EQ(p.ackTotal, -1);
}

TEST(Packet, ToStringMentionsKeyFields)
{
    Packet p;
    p.id = 9;
    p.src = 1;
    p.dst = 2;
    p.type = PacketType::bulk;
    p.dialog = 3;
    p.seq = 5;
    p.sizeBytes = 24;
    auto s = p.toString();
    EXPECT_NE(s.find("bulk"), std::string::npos);
    EXPECT_NE(s.find("1->2"), std::string::npos);
    EXPECT_NE(s.find("dlg=3"), std::string::npos);
}

TEST(Packet, BulkSeqIsTheIndexModTwiceTheWindow)
{
    EXPECT_EQ(bulkSeq(0, 4), 0);
    EXPECT_EQ(bulkSeq(7, 4), 7);
    EXPECT_EQ(bulkSeq(8, 4), 0);
    EXPECT_EQ(bulkSeq(21, 4), 5);
    // A cumulative ack before any delivery acks index -1.
    EXPECT_EQ(bulkSeq(-1, 4), 7);
    EXPECT_EQ(bulkSeq(-1, 1), 1);
}

TEST(Packet, AckFormsAreTellable)
{
    Packet cumulative;
    cumulative.ackDialog = 0;
    cumulative.ackSeq = bulkSeq(-1, 4);
    EXPECT_TRUE(cumulative.isBulkAck());
    EXPECT_FALSE(cumulative.isDialogReject());

    Packet dialogReject;
    dialogReject.ackRejectsBulk = true;
    dialogReject.ackDialog = 0;
    EXPECT_FALSE(dialogReject.isBulkAck());
    EXPECT_TRUE(dialogReject.isDialogReject());

    Packet requestReject; // answers a bulk request: no dialog named
    requestReject.ackRejectsBulk = true;
    EXPECT_FALSE(requestReject.isBulkAck());
    EXPECT_FALSE(requestReject.isDialogReject());

    Packet grant;
    grant.ackGrantsBulk = true;
    grant.ackDialog = 0;
    EXPECT_FALSE(grant.isBulkAck());
    EXPECT_FALSE(grant.isDialogReject());
}

TEST(PacketType, Names)
{
    EXPECT_STREQ(packetTypeName(PacketType::scalar), "scalar");
    EXPECT_STREQ(packetTypeName(PacketType::bulk), "bulk");
    EXPECT_STREQ(packetTypeName(PacketType::ack), "ack");
}

TEST(NetClassT, OppositeIsInvolution)
{
    EXPECT_EQ(oppositeClass(NetClass::request), NetClass::reply);
    EXPECT_EQ(oppositeClass(NetClass::reply), NetClass::request);
    EXPECT_EQ(oppositeClass(oppositeClass(NetClass::request)),
              NetClass::request);
}

TEST(PacketPool, AllocReleaseConservation)
{
    PacketPool pool;
    Packet *a = pool.alloc();
    Packet *b = pool.alloc();
    EXPECT_EQ(pool.allocated(), 2u);
    EXPECT_EQ(pool.live(), 2u);
    pool.release(a);
    pool.release(b);
    EXPECT_EQ(pool.live(), 0u);
    EXPECT_EQ(pool.released(), 2u);
}

TEST(PacketPool, IdsAreUniqueAcrossRecycling)
{
    PacketPool pool;
    Packet *a = pool.alloc();
    auto idA = a->id;
    pool.release(a);
    Packet *b = pool.alloc();
    EXPECT_NE(b->id, idA);
    pool.release(b);
}

TEST(PacketPool, RecycledPacketIsZeroed)
{
    PacketPool pool;
    Packet *a = pool.alloc();
    a->dst = 17;
    a->bulkRequest = true;
    a->seq = 3;
    a->routeScratch = 0xff;
    pool.release(a);
    Packet *b = pool.alloc();
    EXPECT_EQ(b->dst, invalidNode);
    EXPECT_FALSE(b->bulkRequest);
    EXPECT_EQ(b->seq, -1);
    EXPECT_EQ(b->routeScratch, 0u);
    pool.release(b);
}

TEST(PacketPool, ReusesMemory)
{
    PacketPool pool;
    Packet *a = pool.alloc();
    pool.release(a);
    Packet *b = pool.alloc();
    EXPECT_EQ(a, b); // freelist reuse
    pool.release(b);
}

TEST(FlitT, ValidityTracksPacket)
{
    Flit f;
    EXPECT_FALSE(f.valid());
    Packet p;
    f.pkt = &p;
    EXPECT_TRUE(f.valid());
}

} // namespace
} // namespace nifdy
