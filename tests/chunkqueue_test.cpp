// ChunkQueue unit contract: refcounted view lifetime, offset/length splits,
// per-datagram metadata preservation, and the zero-allocation steady state
// of the queue -> burst -> medium path.
//
// Like alloc_test, this binary replaces global operator new/delete with
// counting versions so the steady-state assertions measure the real heap,
// not a proxy for it.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>  // pp-lint: allow(raw-new): header name, not an expression
#include <utility>

#include "net/access_point.hpp"
#include "net/chunk.hpp"
#include "net/link.hpp"
#include "net/packet.hpp"
#include "net/wireless.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace {

std::uint64_t g_allocs = 0;  // single-threaded binary; plain counter is fine

void* counted_alloc(std::size_t n) {
  ++g_allocs;
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc{};
}

// The event slab's slots are cache-line aligned, so the aligned forms of
// operator new count too.
void* counted_aligned_alloc(std::size_t n, std::align_val_t a) {
  const auto align = static_cast<std::size_t>(a);
  ++g_allocs;
  if (void* p = std::aligned_alloc(
          align, ((n ? n : 1) + align - 1) / align * align))
    return p;
  throw std::bad_alloc{};
}

}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }  // pp-lint: allow(raw-new): counting operator new replacement under test
void* operator new[](std::size_t n) { return counted_alloc(n); }  // pp-lint: allow(raw-new): counting operator new replacement under test
// pp-lint: allow(raw-new): counting operator new replacement under test
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  ++g_allocs;
  return std::malloc(n ? n : 1);
}
void operator delete(void* p) noexcept { std::free(p); }  // pp-lint: allow(raw-delete): operator delete replacement under test
void operator delete[](void* p) noexcept { std::free(p); }  // pp-lint: allow(raw-delete): operator delete replacement under test
void operator delete(void* p, std::size_t) noexcept { std::free(p); }  // pp-lint: allow(raw-delete): operator delete replacement under test
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }  // pp-lint: allow(raw-delete): operator delete replacement under test
// pp-lint: allow(raw-delete): operator delete replacement under test
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
// pp-lint: allow(raw-new): counting operator new replacement under test
void* operator new(std::size_t n, std::align_val_t a) {
  return counted_aligned_alloc(n, a);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }  // pp-lint: allow(raw-delete): operator delete replacement under test
// pp-lint: allow(raw-delete): operator delete replacement under test
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace pp::net {
namespace {

using sim::Time;

Packet test_packet(std::uint32_t payload, std::uint8_t host = 1) {
  Packet pkt;
  pkt.src = Ipv4Addr::octets(10, 0, 0, 1);
  pkt.src_port = 5000;
  pkt.dst = Ipv4Addr::octets(172, 16, 0, host);
  pkt.dst_port = 7000;
  pkt.proto = Protocol::Udp;
  pkt.payload = payload;
  pkt.sent_at = Time::ms(42);
  return pkt;
}

struct TestMessage : Message {};

// -- Refcount lifetime -------------------------------------------------------------

TEST(ChunkQueueTest, SoleFullViewMovesPacketOutWithoutCopy) {
  auto pool = std::make_shared<ChunkPool>();
  ChunkQueue q{pool};
  Packet pkt = test_packet(1000);
  pkt.set_media({77, 2});
  auto msg = std::make_shared<const TestMessage>();
  pkt.data = msg;
  q.push(std::move(pkt));
  EXPECT_EQ(msg.use_count(), 2);  // ours + the queued datagram

  Packet out = q.pop_packet();
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(out.media.seq, 77u);       // the same packet, moved
  EXPECT_EQ(out.data.get(), msg.get());
  EXPECT_EQ(msg.use_count(), 2);       // ours + out; the datagram released
}

TEST(ChunkQueueTest, DatagramReleasedOnlyWhenLastViewGoes) {
  auto pool = std::make_shared<ChunkPool>();
  ChunkQueue q{pool};
  Packet pkt = test_packet(1000);
  auto msg = std::make_shared<const TestMessage>();
  pkt.data = msg;
  q.push(std::move(pkt));

  q.split_front(400);  // two views over one datagram
  ASSERT_EQ(q.packets(), 2u);
  EXPECT_EQ(q.front()->data->refs, 2u);
  EXPECT_EQ(msg.use_count(), 2);

  q.drop_front();  // one view down; the datagram must stay alive
  EXPECT_EQ(q.packets(), 1u);
  EXPECT_EQ(msg.use_count(), 2);

  q.drop_front();  // last view: payload storage released back to the pool
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(msg.use_count(), 1);
}

TEST(ChunkQueueTest, ClearReleasesEveryView) {
  auto pool = std::make_shared<ChunkPool>();
  ChunkQueue q{pool};
  auto msg = std::make_shared<const TestMessage>();
  for (int i = 0; i < 4; ++i) {
    Packet pkt = test_packet(100);
    pkt.data = msg;
    q.push(std::move(pkt));
  }
  EXPECT_EQ(msg.use_count(), 5);
  q.clear();
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.bytes(), 0u);
  EXPECT_EQ(msg.use_count(), 1);
}

// -- Splits ------------------------------------------------------------------------

TEST(ChunkQueueTest, SplitFrontDividesViewAndConservesBytes) {
  auto pool = std::make_shared<ChunkPool>();
  ChunkQueue q{pool};
  q.push(test_packet(1000));
  q.mark_tail();
  q.split_front(400);

  EXPECT_EQ(q.packets(), 2u);
  EXPECT_EQ(q.bytes(), 1000u);  // byte total conserved across the split
  const Chunk* head = q.front();
  ASSERT_NE(head, nullptr);
  ASSERT_NE(head->next, nullptr);
  EXPECT_EQ(head->offset, 0u);
  EXPECT_EQ(head->length, 400u);
  EXPECT_EQ(head->next->offset, 400u);
  EXPECT_EQ(head->next->length, 600u);
  EXPECT_EQ(head->data, head->next->data);
  // The mark terminates the burst, so it must ride the LAST fragment.
  EXPECT_FALSE(head->marked);
  EXPECT_TRUE(head->next->marked);
  q.audit();

  // A shared partial view materializes as a copy sized to the view.
  Packet first = q.pop_packet();
  EXPECT_EQ(first.payload, 400u);
  EXPECT_FALSE(first.marked);
  Packet rest = q.pop_packet();
  EXPECT_EQ(rest.payload, 600u);
  EXPECT_TRUE(rest.marked);
}

// -- Metadata preservation ---------------------------------------------------------

TEST(ChunkQueueTest, PopPreservesMetadataAndOrsMark) {
  auto pool = std::make_shared<ChunkPool>();
  ChunkQueue q{pool};
  Packet pkt = test_packet(640);
  pkt.marked = false;
  q.push(std::move(pkt));
  q.mark_tail();  // mark set on the view, not the datagram

  Packet out = q.pop_packet();
  EXPECT_TRUE(out.marked);  // view mark OR-ed onto the materialized packet
  EXPECT_EQ(out.dst, Ipv4Addr::octets(172, 16, 0, 1));
  EXPECT_EQ(out.dst_port, 7000);
  EXPECT_EQ(out.src_port, 5000);
  EXPECT_EQ(out.proto, Protocol::Udp);
  EXPECT_EQ(out.sent_at, Time::ms(42));  // arrival stamp for delay slack
}

TEST(ChunkQueueTest, AlreadyMarkedPacketStaysMarked) {
  auto pool = std::make_shared<ChunkPool>();
  ChunkQueue q{pool};
  Packet pkt = test_packet(64);
  pkt.marked = true;
  q.push(std::move(pkt));
  EXPECT_TRUE(q.pop_packet().marked);
}

TEST(ChunkQueueTest, HandoffPreservesOrderAndTotals) {
  auto pool = std::make_shared<ChunkPool>();
  ChunkQueue src{pool};
  ChunkQueue dst{pool};
  for (std::uint32_t i = 0; i < 3; ++i) {
    Packet pkt = test_packet(100 * (i + 1));
    pkt.set_media({i, 0});
    src.push(std::move(pkt));
  }
  src.pop_front_to(dst);  // per-hop handoff moves the view, not the bytes
  EXPECT_EQ(src.packets(), 2u);
  EXPECT_EQ(dst.packets(), 1u);
  EXPECT_EQ(dst.bytes(), 100u);
  src.move_all_to(dst);  // O(1) splice of the remainder
  EXPECT_TRUE(src.empty());
  EXPECT_EQ(dst.packets(), 3u);
  EXPECT_EQ(dst.bytes(), 600u);
  dst.audit();
  for (std::uint32_t i = 0; i < 3; ++i)
    EXPECT_EQ(dst.pop_packet().media.seq, i);
}

TEST(ChunkQueueTest, WireBytesFollowProtocol) {
  auto pool = std::make_shared<ChunkPool>();
  ChunkQueue q{pool};
  q.push(test_packet(1000));  // UDP: 20 IP + 8 UDP
  EXPECT_EQ(chunk_wire_bytes(*q.front()), 1028u);
  Packet tcp = test_packet(1000);
  tcp.proto = Protocol::Tcp;  // 20 IP + 20 TCP
  q.push(std::move(tcp));
  EXPECT_EQ(chunk_wire_bytes(*q.back()), 1040u);
}

// -- Zero-allocation steady state --------------------------------------------------

TEST(ChunkQueueAlloc, QueueChurnIsAllocationFreeAfterWarmup) {
  auto pool = std::make_shared<ChunkPool>();
  ChunkQueue q{pool};
  ChunkQueue chain{pool};
  auto churn = [&](int rounds) {
    for (int r = 0; r < rounds; ++r) {
      for (int i = 0; i < 32; ++i) q.push(test_packet(1000));
      while (!q.empty()) q.pop_front_to(chain);
      chain.mark_tail();
      while (!chain.empty()) (void)chain.pop_packet();
    }
  };
  churn(2);  // warmup: slabs and free lists reach steady size
  const std::uint64_t slabs = pool->slab_allocs();
  const std::uint64_t before = g_allocs;
  churn(50);
  EXPECT_EQ(g_allocs - before, 0u)
      << "queue push/handoff/pop churn hit the heap after warmup";
  EXPECT_EQ(pool->slab_allocs(), slabs) << "pool grew after warmup";
}

// Station stub for the end-to-end loop: always listening, discards frames.
struct CountingStation : WirelessStation {
  std::uint64_t packets = 0;
  bool listening() const override { return true; }
  void deliver(Packet, sim::Duration) override { ++packets; }
};

// The full downlink burst path — ChunkQueue -> wired Channel -> AccessPoint
// -> WirelessMedium -> station — allocates nothing per burst after warmup:
// chunk nodes recycle through the pool, the chains wait in each hop's
// grow-only in-flight ring, and every hop moves views instead of buffers.
TEST(ChunkQueueAlloc, BurstPathEndToEndIsAllocationFreeAfterWarmup) {
  sim::Simulator sim{7};
  WirelessMedium medium{sim};
  AccessPointParams app;
  app.p_spike = 0;  // spikes only stretch delays; keep the loop compact
  AccessPoint ap{sim, medium, app};
  PointToPointLink link{sim, WiredParams{}, ap, ap};
  CountingStation st;
  medium.attach_station(st, Ipv4Addr::octets(172, 16, 0, 1));

  auto pool = std::make_shared<ChunkPool>();
  sim::Time t = Time::ms(1);
  // The chain waits outside the event: a capture holds no ChunkQueue.
  ChunkQueue pending;
  auto one_burst = [&] {
    ChunkQueue burst{pool};
    for (int i = 0; i < 25; ++i) burst.push(test_packet(1000));
    burst.mark_tail();
    pending = std::move(burst);
    sim.at(t, [&link, &pending] {
      link.send_burst_a_to_b(std::move(pending));
    });
    t = t + Time::ms(100);
    sim.run_until(t);
  };
  for (int i = 0; i < 3; ++i) one_burst();  // warmup
  const std::uint64_t slabs = pool->slab_allocs();
  const std::uint64_t before = g_allocs;
  const std::uint64_t delivered = st.packets;
  for (int i = 0; i < 50; ++i) one_burst();
  EXPECT_EQ(g_allocs - before, 0u)
      << "queue -> burst -> medium path hit the heap after warmup";
  EXPECT_EQ(pool->slab_allocs(), slabs);
  EXPECT_EQ(st.packets - delivered, 50u * 25u);  // everything arrived
}

}  // namespace
}  // namespace pp::net
