// Zero-allocation contract for the scheduling hot path.
//
// The test binary replaces global operator new/delete with counting
// versions, warms an EventQueue / Simulator to its steady-state footprint
// (slab, heap array, and free list at peak depth), and then asserts that
// further schedule/fire/cancel churn — with captures as large as any the
// simulator schedules — performs exactly zero heap allocations.  That
// every capture fits the SBO buffer is a compile-time check in
// EventCallback itself; a scenario-level test runs a UDP video-streaming
// workload through it, and a warmed-up video stream between two nodes
// sends and receives its datagrams without touching the heap.
//
// The same replacement also tracks the bytes live on the heap, which
// bounds what an idle client costs once its testbed is built.
#include <gtest/gtest.h>
#include <malloc.h>

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>  // pp-lint: allow(raw-new): header name, not an expression
#include <vector>

#include "exp/builder.hpp"
#include "exp/scenario.hpp"
#include "net/packet.hpp"
#include "sim/event_queue.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"
#include "testutil.hpp"
#include "workload/video.hpp"

namespace {

// Single-threaded binary; plain counters are fine.
std::uint64_t g_allocs = 0;
std::int64_t g_live_bytes = 0;  // usable bytes of every live allocation

void* counted_malloc(std::size_t n) noexcept {
  ++g_allocs;
  void* p = std::malloc(n ? n : 1);
  if (p) g_live_bytes += static_cast<std::int64_t>(malloc_usable_size(p));
  return p;
}

void* counted_alloc(std::size_t n) {
  if (void* p = counted_malloc(n)) return p;
  throw std::bad_alloc{};
}

// The event slab's slots are cache-line aligned, so the aligned forms of
// operator new count too.
void* counted_aligned_alloc(std::size_t n, std::align_val_t a) {
  const auto align = static_cast<std::size_t>(a);
  ++g_allocs;
  void* p =
      std::aligned_alloc(align, ((n ? n : 1) + align - 1) / align * align);
  if (!p) throw std::bad_alloc{};
  g_live_bytes += static_cast<std::int64_t>(malloc_usable_size(p));
  return p;
}

void counted_free(void* p) noexcept {
  if (p) g_live_bytes -= static_cast<std::int64_t>(malloc_usable_size(p));
  std::free(p);
}

}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }  // pp-lint: allow(raw-new): counting operator new replacement under test
void* operator new[](std::size_t n) { return counted_alloc(n); }  // pp-lint: allow(raw-new): counting operator new replacement under test
// pp-lint: allow(raw-new): counting operator new replacement under test
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted_malloc(n);
}
void operator delete(void* p) noexcept { counted_free(p); }  // pp-lint: allow(raw-delete): operator delete replacement under test
void operator delete[](void* p) noexcept { counted_free(p); }  // pp-lint: allow(raw-delete): operator delete replacement under test
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }  // pp-lint: allow(raw-delete): operator delete replacement under test
void operator delete[](void* p, std::size_t) noexcept { counted_free(p); }  // pp-lint: allow(raw-delete): operator delete replacement under test
// pp-lint: allow(raw-delete): operator delete replacement under test
void operator delete(void* p, const std::nothrow_t&) noexcept {
  counted_free(p);
}
// pp-lint: allow(raw-new): counting operator new replacement under test
void* operator new(std::size_t n, std::align_val_t a) {
  return counted_aligned_alloc(n, a);
}
void operator delete(void* p, std::align_val_t) noexcept { counted_free(p); }  // pp-lint: allow(raw-delete): operator delete replacement under test
// pp-lint: allow(raw-delete): operator delete replacement under test
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  counted_free(p);
}

namespace pp {
namespace {

using sim::EventQueue;
using sim::Time;

// Mimics the fattest capture the simulator schedules: 40 bytes, as in the
// proxy's burst-slot timers (`this` plus a 32-byte schedule entry).
// Packets never ride in an event; links keep them in FIFO rings of their
// own.
struct CaptureState {
  unsigned char bytes[32] = {};
};
static_assert(sim::EventCallback::fits_inline<CaptureState>());
using PacketCapture = decltype([p = net::Packet{}] { (void)p; });
static_assert(!sim::EventCallback::fits_inline<PacketCapture>(),
              "a lambda capturing a net::Packet must not fit an event slot");

TEST(Alloc, QueueChurnIsAllocationFreeAfterWarmup) {
  EventQueue q;
  constexpr int kDepth = 64;
  std::uint64_t sink = 0;
  auto churn = [&](int rounds) {
    for (int r = 0; r < rounds; ++r) {
      for (int i = 0; i < kDepth; ++i) {
        CaptureState payload;
        payload.bytes[0] = static_cast<unsigned char>(i);
        q.push(Time::ms(r * kDepth + i),
               [&sink, payload] { sink += payload.bytes[0]; });
      }
      while (!q.empty()) q.pop().fn();
    }
  };
  churn(2);  // warmup: slab, heap array, free list reach steady size
  const std::uint64_t before = g_allocs;
  churn(50);
  EXPECT_EQ(g_allocs - before, 0u)
      << "schedule/fire churn with inline-sized captures hit the heap";
  EXPECT_GT(sink, 0u);
}

TEST(Alloc, CancelChurnIsAllocationFreeAfterWarmup) {
  EventQueue q;
  constexpr int kDepth = 64;
  auto churn = [&](int rounds) {
    for (int r = 0; r < rounds; ++r) {
      sim::EventHandle hs[kDepth];
      for (int i = 0; i < kDepth; ++i) {
        CaptureState payload;
        hs[i] = q.push(Time::ms(r * kDepth + i), [payload] {});
      }
      for (int i = 0; i < kDepth; i += 2) hs[i].cancel();
      while (!q.empty()) q.pop().fn();
    }
  };
  churn(2);
  const std::uint64_t before = g_allocs;
  churn(50);
  EXPECT_EQ(g_allocs - before, 0u)
      << "schedule/cancel churn hit the heap after warmup";
}

// A schedule broadcast re-arms every idle client's timer at one shared
// time: the pushes form a single same-time run whose extra entries live in
// the queue's chunk pool.  Half the timers are cancelled and re-armed at a
// second shared time; after warmup the pool, like the slab, recycles.
TEST(Alloc, BroadcastFanoutChurnIsAllocationFreeAfterWarmup) {
  EventQueue q;
  constexpr int kTimers = 1000;
  std::vector<sim::EventHandle> hs(kTimers);
  std::uint64_t fired = 0;
  auto churn = [&](int rounds) {
    for (int r = 0; r < rounds; ++r) {
      const Time wake = Time::ms(2 * r);
      for (auto& h : hs) h = q.push(wake, [&fired] { ++fired; });
      for (int i = 0; i < kTimers; i += 2) {
        hs[i].cancel();
        hs[i] = q.push(wake + Time::ms(1), [&fired] { ++fired; });
      }
      while (!q.empty()) q.pop().fn();
    }
  };
  churn(2);
  const std::uint64_t before = g_allocs;
  churn(50);
  EXPECT_EQ(g_allocs - before, 0u)
      << "same-time fan-out churn hit the heap after warmup";
  EXPECT_EQ(fired, 52u * kTimers);
}

TEST(Alloc, SimulatorSteadyStateIsAllocationFree) {
  sim::Simulator sim;
  constexpr int kTicks = 2000;
  int fired = 0;
  // Self-rescheduling tick chain with a capture as large as the fattest
  // one the simulator schedules, the shape of every periodic component in
  // the testbed.
  struct Tick {
    sim::Simulator& sim;
    int& fired;
    unsigned char state[24];
    void operator()() {
      ++fired;
      if (fired < kTicks) sim.after(Time::us(50), Tick{sim, fired, {}});
    }
  };
  static_assert(sizeof(Tick) == sim::EventCallback::kInlineCapacity);
  sim.after(Time::us(50), Tick{sim, fired, {}});
  // Warmup: run the first handful of ticks, then measure the rest.
  sim.run_until(Time::us(50) * 10);
  const std::uint64_t before = g_allocs;
  sim.run();
  EXPECT_EQ(g_allocs - before, 0u)
      << "steady-state simulator ticking hit the heap";
  EXPECT_EQ(fired, kTicks);
}

// Scenario-level contract: an entire UDP video-streaming run — every
// timer, TCP control exchange, schedule broadcast and burst — goes through
// the inline-only scheduling path (a capture over the SBO threshold would
// not have compiled).  The streams are paced into the proxy's ingress, so
// a datagram costs no event on its way into the proxy's queue: the run
// schedules fewer events than it queues datagrams.
TEST(Alloc, UdpStreamingScenarioSchedulesEverythingInline) {
  exp::ScenarioConfig cfg = exp::ScenarioBuilder{}
                                .video(2, 3)  // 512 kbps UDP streams
                                .policy(exp::IntervalPolicy::Fixed500)
                                .seed(7)
                                .duration_s(8.0)  // streams start at t=2s
                                .build();
  exp::ScenarioRun run{cfg};
  run.advance(run.horizon());
  const exp::ScenarioResult res = run.finish();
  const std::uint64_t queued = res.proxy_stats.queued_packets;
  EXPECT_GT(queued, 500u);
  EXPECT_LT(run.bed().sim().queue_stats().scheduled, queued);
}

// A datagram is a flat value: its media header rides in the packet, so a
// warmed-up 512 kbps stream -- server pacing, the wired pipe, the client's
// receiver reports back -- costs no heap allocation per datagram.
TEST(Alloc, UdpStreamingWindowAllocatesNothingPerDatagram) {
  test::NodePair np{3};
  workload::VideoServer server{np.a};
  server.expect_client(np.b.ip(), 3);
  workload::VideoClient client{np.b, np.a.ip()};
  client.play(Time::ms(100));
  np.sim.run_until(Time::sec(4));  // PLAY exchanged, rings at depth
  const std::uint32_t packets_before = client.stats().packets;
  const std::uint32_t reports_before = client.stats().reports_sent;
  const std::uint64_t before = g_allocs;
  np.sim.run_until(Time::sec(12));
  const std::uint64_t allocs = g_allocs - before;
  const std::uint32_t datagrams = client.stats().packets - packets_before;
  EXPECT_GT(datagrams, 300u);
  EXPECT_GT(client.stats().reports_sent, reports_before);
  EXPECT_EQ(allocs, 0u) << "over " << datagrams << " datagrams";
}

// Footprint of the fleet's majority: a cell of idle clients with
// per-client observability off.  What construction leaves live on the
// heap (clients, their ledger rows and proxy table columns, the armed
// daemon timers, and the cell's fixed cost spread over the fleet) stays
// under a per-client bound; allocations freed along the way, such as
// vector growth, do not count.
TEST(Alloc, IdleClientHeapFootprintIsBounded) {
  constexpr int kClients = 2000;
  exp::ScenarioConfig cfg;
  cfg.roles.assign(kClients, exp::kRoleIdle);
  cfg.per_client_obs = false;
  cfg.duration_s = 1.0;
  const std::int64_t before = g_live_bytes;
  const exp::ScenarioRun run{cfg};
  const double per_client =
      static_cast<double>(g_live_bytes - before) / kClients;
  // About 1,000 B on x86-64 glibc; a client object holding its own copy
  // of the testbed's configuration and empty socket tables keeps 1,550.
  EXPECT_LT(per_client, 1300.0);
}

}  // namespace
}  // namespace pp
