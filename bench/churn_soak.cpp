// Long-horizon churn soak: sustained join/leave under a churn storm.
//
// Phase A (replay stability): a 32-client churn-storm scenario (25% of the
// cell flapping) is digested twice under different hash salts; the digests
// must be bit-identical and non-zero, proving membership churn stays a
// pure function of the config.  run_scenario's finalize_audit re-checks
// byte/energy conservation and departed-state cleanliness on both runs.
//
// Phase B (footprint): the same storm driven directly on a Testbed with
// observability detached and UDP video load on every client.  After a
// warmup quarter of the horizon the live heap-block count must stay flat
// (no per-cycle leak, bounded memory).  Every event capture fits the SBO
// buffer by construction (a compile-time check), so the scheduling path
// never touches the heap.
//
// --smoke shrinks the horizon for the bench-smoke ctest label; full runs
// scale with --seconds/--clients to reach 1e8+ events of sustained churn.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <new>  // pp-lint: allow(raw-new): header name, not an expression
#include <vector>

#include "exp/builder.hpp"
#include "exp/digest.hpp"
#include "exp/scenario.hpp"
#include "exp/testbed.hpp"
#include "net/addr.hpp"
#include "proxy/scheduler.hpp"
#include "workload/video.hpp"

namespace {

// Live-block accounting: single-threaded binary, plain counters are fine.
std::uint64_t g_news = 0;
std::uint64_t g_deletes = 0;

void* counted_alloc(std::size_t n) {
  ++g_news;
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc{};
}

}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }  // pp-lint: allow(raw-new): counting operator new replacement under test
void* operator new[](std::size_t n) { return counted_alloc(n); }  // pp-lint: allow(raw-new): counting operator new replacement under test
// pp-lint: allow(raw-new): counting operator new replacement under test
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  ++g_news;
  return std::malloc(n ? n : 1);
}
// pp-lint: allow(raw-delete): operator delete replacement under test
void operator delete(void* p) noexcept {
  ++g_deletes;
  std::free(p);
}
// pp-lint: allow(raw-delete): operator delete replacement under test
void operator delete[](void* p) noexcept {
  ++g_deletes;
  std::free(p);
}
// pp-lint: allow(raw-delete): operator delete replacement under test
void operator delete(void* p, std::size_t) noexcept {
  ++g_deletes;
  std::free(p);
}
// pp-lint: allow(raw-delete): operator delete replacement under test
void operator delete[](void* p, std::size_t) noexcept {
  ++g_deletes;
  std::free(p);
}
// pp-lint: allow(raw-delete): operator delete replacement under test
void operator delete(void* p, const std::nothrow_t&) noexcept {
  ++g_deletes;
  std::free(p);
}

namespace {

int g_failures = 0;

void expect_ok(bool ok, const char* what) {
  if (ok) {
    std::printf("  ok   %s\n", what);
  } else {
    std::printf("  FAIL %s\n", what);
    ++g_failures;
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace pp;
  using sim::Time;

  bool smoke = false;
  bool profile = false;
  double seconds = 240.0;
  int clients = 32;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strcmp(argv[i], "--profile") == 0) profile = true;
    if (std::strcmp(argv[i], "--seconds") == 0 && i + 1 < argc)
      seconds = std::atof(argv[++i]);
    if (std::strcmp(argv[i], "--clients") == 0 && i + 1 < argc)
      clients = std::atoi(argv[++i]);
  }
  if (smoke) seconds = 30.0;
  if (clients < 4) clients = 4;

  // -- Phase A: replay digests under sustained churn ------------------------------
  const double digest_s = smoke ? 16.0 : 40.0;
  exp::ScenarioBuilder builder = exp::ScenarioBuilder{}
                                     .video(clients, 1)  // 128K streams
                                     .policy(exp::IntervalPolicy::Fixed500)
                                     .seed(42)
                                     .duration_s(digest_s)
                                     .schedule_repeats(2);
  builder.fault_spec().churn_storm(Time::seconds(2.0),
                                   Time::seconds(digest_s - 4.0), 0.25);
  const exp::ScenarioConfig cfg = builder.build();

  std::printf("churn_soak: phase A — %d-client storm, %.0fs, double digest\n",
              clients, digest_s);
  net::set_hash_salt(1);
  const std::uint64_t d1 = exp::run_digest(cfg);
  net::set_hash_salt(99991);
  const std::uint64_t d2 = exp::run_digest(cfg);
  net::set_hash_salt(0);
  expect_ok(d1 != 0, "replay digest folded the result");
  expect_ok(d1 == d2, "digests identical across hash salts");
  std::printf("  digest %016llx\n", static_cast<unsigned long long>(d1));

  // -- Phase B: footprint soak (observability detached) ----------------------------
  std::printf("churn_soak: phase B — %.0fs soak, %d clients flapping\n",
              seconds, clients);
  exp::TestbedParams tp;
  tp.seed = 7;
  tp.num_clients = clients;
  tp.observe = false;
  tp.channel = channel::ChannelSpec::flat(0.01);
  tp.fault.churn_storm(Time::seconds(2.0), Time::seconds(seconds - 2.0),
                       0.25);
  // Fast flapping: several full leave/rejoin cycles per flapper per minute
  // keeps the join/leave machinery hot for the whole soak.
  tp.fault.storm.min_away = Time::ms(800);
  tp.fault.storm.max_away = Time::ms(2000);
  tp.fault.storm.min_home = Time::ms(800);
  tp.fault.storm.max_home = Time::ms(2000);

  exp::Testbed bed{tp, std::make_unique<proxy::FixedIntervalScheduler>(
                           Time::ms(500))};
  net::Node& video_node = bed.add_server("realserver");
  workload::VideoServerParams vsp;
  vsp.trace_seed = tp.seed * 7919 + 13;
  // A steady state must exist for the footprint check to mean anything:
  // per-packet airtime overhead caps the cell near ~400 small packets/s,
  // and 32 clients at the default 24 fps oversubscribe it (proxy queues
  // then grow for the whole run — backlog, not leak).  8 fps at the
  // lowest fidelity keeps the aggregate near ~290 packets/s, inside
  // capacity, so queues drain every interval and the footprint is flat.
  vsp.trace.fps = 8;
  vsp.trace.gop = 8;
  workload::VideoServer video_server{video_node, vsp};
  // Paced into the proxy's ingress, as in every scenario run, so the
  // flat-footprint check covers the paced path under churn.
  if (net::Channel* ingress = bed.paced_ingress())
    video_server.pace_into(*ingress);
  std::vector<std::unique_ptr<workload::VideoClient>> apps;
  apps.reserve(static_cast<std::size_t>(clients));
  for (int i = 0; i < clients; ++i) {
    auto& cl = bed.client(i);
    video_server.expect_client(cl.ip(), 0);
    auto app =
        std::make_unique<workload::VideoClient>(cl.node(), video_node.ip());
    app->play(Time::seconds(2.0) + Time::ms(50 * i));
    apps.push_back(std::move(app));
  }
  bed.start(Time::ms(500));

  const sim::Time horizon = Time::seconds(seconds);
  // Warmup: deques, slab, free lists, and the storm itself all reach
  // steady state inside the first quarter.
  const double warmup_s = seconds * 0.25;
  bed.run_until(Time::seconds(warmup_s));
  const std::int64_t live_before =
      static_cast<std::int64_t>(g_news) - static_cast<std::int64_t>(g_deletes);
  // --profile: snapshot live blocks at each decile of the measurement
  // window to localise any growth in time (leak vs late high-water mark).
  std::int64_t prev = live_before;
  for (int d = 1; d <= 10; ++d) {
    bed.run_until(
        Time::seconds(warmup_s + (seconds - warmup_s) * 0.1 * d));
    const std::int64_t live_now = static_cast<std::int64_t>(g_news) -
                                  static_cast<std::int64_t>(g_deletes);
    if (profile)
      std::printf("  decile %2d  live %+lld\n", d,
                  static_cast<long long>(live_now - prev));
    prev = live_now;
  }
  const std::int64_t live_after = prev;
  bed.finalize_audit();

  const sim::EventQueue::Stats& qs = bed.sim().queue_stats();
  const proxy::ProxyStats& ps = bed.proxy().stats();
  const std::int64_t growth = live_after - live_before;
  std::printf(
      "  events fired      %llu\n"
      "  joins/leaves      %llu / %llu (renegotiations %llu)\n"
      "  drained/dropped   %llu B / %llu B\n"
      "  live-block growth %lld after warmup\n",
      static_cast<unsigned long long>(qs.fired),
      static_cast<unsigned long long>(ps.joins),
      static_cast<unsigned long long>(ps.leaves),
      static_cast<unsigned long long>(ps.renegotiations),
      static_cast<unsigned long long>(ps.churn_drained_bytes),
      static_cast<unsigned long long>(ps.churn_dropped_bytes),
      static_cast<long long>(growth));
  expect_ok(ps.joins > 0 && ps.leaves > 0, "storm produced joins and leaves");
  // Flat footprint: steady-state churn must not accrete memory.  A small
  // slack absorbs late container high-water marks (slab growth to the
  // horizon's peak event depth, deque block rounding).
  expect_ok(growth <= 512, "live heap blocks flat after warmup (leak check)");
  expect_ok(bed.sim().now() >= horizon, "soak ran to the horizon");

  if (g_failures > 0) {
    std::printf("churn_soak: %d FAILURE(S)\n", g_failures);
    return 1;
  }
  std::printf("churn_soak: all checks passed\n");
  return 0;
}
