#include <gtest/gtest.h>

#include "proxy/marker.hpp"

namespace pp::proxy {
namespace {

net::Packet data_segment(std::uint64_t data_seq, std::uint32_t len) {
  net::Packet p;
  p.proto = net::Protocol::Tcp;
  p.payload = len;
  p.tcp.seq = data_seq + 1;  // wire coords: SYN occupies 0
  return p;
}

net::Packet fin_segment(std::uint64_t data_seq) {
  net::Packet p = data_segment(data_seq, 0);
  p.tcp.fin = true;
  return p;
}

TEST(BurstMarker, MarksSegmentCarryingArmedByte) {
  BurstMarker m;
  m.arm_after(3000);
  m.bytes_written(3000);
  auto s1 = data_segment(0, 1400);
  auto s2 = data_segment(1400, 1400);
  auto s3 = data_segment(2800, 200);
  m.on_egress(s1);
  m.on_egress(s2);
  m.on_egress(s3);
  EXPECT_FALSE(s1.marked);
  EXPECT_FALSE(s2.marked);
  EXPECT_TRUE(s3.marked);
  EXPECT_EQ(m.marks_emitted(), 1u);
  EXPECT_FALSE(m.armed());
}

TEST(BurstMarker, InvariantSAtLeastQ) {
  BurstMarker m;
  m.bytes_written(2800);
  auto s1 = data_segment(0, 1400);
  m.on_egress(s1);
  EXPECT_LE(m.sent(), m.written());
  auto s2 = data_segment(1400, 1400);
  m.on_egress(s2);
  EXPECT_EQ(m.sent(), m.written());
}

TEST(BurstMarker, RetransmissionDoesNotAdvanceQ) {
  BurstMarker m;
  m.bytes_written(2800);
  auto s1 = data_segment(0, 1400);
  m.on_egress(s1);
  const auto q_before = m.sent();
  auto rtx = data_segment(0, 1400);  // same bytes again
  m.on_egress(rtx);
  EXPECT_EQ(m.sent(), q_before);
  EXPECT_FALSE(rtx.marked);
}

TEST(BurstMarker, RetransmittedMarkedSegmentIsNotRemarked) {
  // The paper: if the marked packet is dropped and retransmitted, Q is not
  // incremented, so the retransmission carries no mark (the client recovers
  // via the next schedule instead).
  BurstMarker m;
  m.arm_after(1400);
  m.bytes_written(1400);
  auto seg = data_segment(0, 1400);
  m.on_egress(seg);
  EXPECT_TRUE(seg.marked);
  auto rtx = data_segment(0, 1400);
  m.on_egress(rtx);
  EXPECT_FALSE(rtx.marked);
  EXPECT_EQ(m.marks_emitted(), 1u);
}

TEST(BurstMarker, SecondBurstMarksAgain) {
  BurstMarker m;
  m.arm_after(1000);
  m.bytes_written(1000);
  auto s1 = data_segment(0, 1000);
  m.on_egress(s1);
  EXPECT_TRUE(s1.marked);
  m.arm_after(500);
  m.bytes_written(500);
  auto s2 = data_segment(1000, 500);
  m.on_egress(s2);
  EXPECT_TRUE(s2.marked);
  EXPECT_EQ(m.marks_emitted(), 2u);
}

TEST(BurstMarker, ArmNowMarksFirstSegmentReachingCurrentS) {
  BurstMarker m;
  m.bytes_written(2000);  // written earlier (previous slot, cwnd-limited)
  m.arm_now();
  auto s1 = data_segment(0, 1400);
  auto s2 = data_segment(1400, 600);
  m.on_egress(s1);
  m.on_egress(s2);
  EXPECT_FALSE(s1.marked);
  EXPECT_TRUE(s2.marked);
}

TEST(BurstMarker, UnarmedNeverMarks) {
  BurstMarker m;
  m.bytes_written(5000);
  for (std::uint64_t off = 0; off < 5000; off += 1000) {
    auto s = data_segment(off, 1000);
    m.on_egress(s);
    EXPECT_FALSE(s.marked);
  }
}

TEST(BurstMarker, SynAndPureAcksIgnored) {
  BurstMarker m;
  m.arm_after(0);
  net::Packet syn;
  syn.proto = net::Protocol::Tcp;
  syn.tcp.syn = true;
  m.on_egress(syn);
  EXPECT_FALSE(syn.marked);
  net::Packet ack = data_segment(0, 0);
  m.on_egress(ack);
  EXPECT_FALSE(ack.marked);
}

TEST(BurstMarker, FinModeMarksTheFinNotTheData) {
  BurstMarker m;
  m.arm_after_with_fin(1400);
  m.bytes_written(1400);
  auto data = data_segment(0, 1400);
  m.on_egress(data);
  EXPECT_FALSE(data.marked) << "data must not steal the mark from the FIN";
  auto fin = fin_segment(1400);
  m.on_egress(fin);
  EXPECT_TRUE(fin.marked);
}

TEST(BurstMarker, FinModeWaitsForAllDataBeforeMarkingFin) {
  BurstMarker m;
  m.arm_after_with_fin(2800);
  m.bytes_written(2800);
  auto s1 = data_segment(0, 1400);
  m.on_egress(s1);
  // An early FIN (out-of-order emission) with data outstanding: no mark.
  auto early_fin = fin_segment(2800);
  // q (1400) < m (2800) -> not marked.
  m.on_egress(early_fin);
  EXPECT_FALSE(early_fin.marked);
  auto s2 = data_segment(1400, 1400);
  m.on_egress(s2);
  EXPECT_FALSE(s2.marked);
  auto fin = fin_segment(2800);
  m.on_egress(fin);
  EXPECT_TRUE(fin.marked);
}

TEST(BurstMarker, DisarmCancelsPendingMark) {
  BurstMarker m;
  m.arm_after(1000);
  m.disarm();
  m.bytes_written(1000);
  auto s = data_segment(0, 1000);
  m.on_egress(s);
  EXPECT_FALSE(s.marked);
}

TEST(BurstMarker, UdpPacketsIgnored) {
  BurstMarker m;
  m.arm_after(0);
  net::Packet udp;
  udp.proto = net::Protocol::Udp;
  udp.payload = 500;
  m.on_egress(udp);
  EXPECT_FALSE(udp.marked);
  EXPECT_TRUE(m.armed());
}

// Property sweep: for any split of a burst into segments, exactly the final
// segment is marked.
class MarkerSplitSweep : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(MarkerSplitSweep, ExactlyLastSegmentMarked) {
  const std::uint32_t seg_size = GetParam();
  const std::uint64_t total = 10'000;
  BurstMarker m;
  m.arm_after(total);
  m.bytes_written(total);
  int marks = 0;
  bool last_marked = false;
  for (std::uint64_t off = 0; off < total; off += seg_size) {
    const std::uint32_t len =
        static_cast<std::uint32_t>(std::min<std::uint64_t>(seg_size, total - off));
    auto s = data_segment(off, len);
    m.on_egress(s);
    marks += s.marked;
    last_marked = s.marked;
  }
  EXPECT_EQ(marks, 1);
  EXPECT_TRUE(last_marked);
}

INSTANTIATE_TEST_SUITE_P(SegmentSizes, MarkerSplitSweep,
                         ::testing::Values(1u, 7u, 128u, 999u, 1400u, 1500u,
                                           4096u, 9999u, 10000u));

}  // namespace
}  // namespace pp::proxy
