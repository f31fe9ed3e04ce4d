// Determinism harness tests: replay digests must be identical across runs
// and across unordered-container hash salts, and must be sensitive to any
// real divergence in what the simulation did.
//
// The CTest target digest_double_run exercises the same property across
// processes (two pp_digest invocations with different PP_HASH_SEED); these
// tests run the double-run in-process so a regression points directly at
// the scenario runner rather than the harness plumbing.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <ostream>

#include "exp/builder.hpp"
#include "exp/digest.hpp"
#include "exp/scenario.hpp"
#include "net/addr.hpp"
#include "obs/observer.hpp"

namespace pp::exp {
namespace {

using sim::Time;

// Restores the process-wide hash salt on scope exit so tests compose.
struct ScopedHashSalt {
  explicit ScopedHashSalt(std::uint64_t salt) : prev_(net::hash_salt()) {
    net::set_hash_salt(salt);
  }
  ~ScopedHashSalt() { net::set_hash_salt(prev_); }

 private:
  std::uint64_t prev_;
};

// -- Digest primitives -------------------------------------------------------------

// A two-client result with every folded struct non-trivial.
ScenarioResult sample_result() {
  ScenarioResult r;
  r.horizon = Time::seconds(20.0);
  r.ap_drops = 3;
  r.frames_on_air = 1200;
  r.proxy_stats.schedules_sent = 40;
  r.proxy_stats.churn_dropped_bytes = 7;
  r.fault_stats.windows_activated = 2;
  for (std::uint8_t i = 1; i <= 2; ++i) {
    ClientResult c;
    c.ip = net::Ipv4Addr::octets(172, 16, 0, i);
    c.role = i;
    c.saved_pct = 60.0 + i;
    c.packets_received = 100u * i;
    c.assoc_retries = i;
    r.clients.push_back(c);
  }
  return r;
}

TEST(DigestTest, ResultDigestIsValueSensitive) {
  const ScenarioResult base = sample_result();
  const std::uint64_t d = result_digest(base);
  EXPECT_EQ(result_digest(sample_result()), d);
  const std::vector<void (*)(ScenarioResult&)> edits{
      [](ScenarioResult& r) { r.clients[1].packets_received += 1; },
      [](ScenarioResult& r) { r.clients[0].saved_pct += 1e-9; },
      [](ScenarioResult& r) { r.clients[0].video_fidelity_final = 2; },
      [](ScenarioResult& r) { r.clients[1].assoc_retries += 1; },
      [](ScenarioResult& r) { r.proxy_stats.schedules_sent += 1; },
      [](ScenarioResult& r) { r.proxy_stats.churn_dropped_bytes += 1; },
      [](ScenarioResult& r) { r.fault_stats.fade_losses += 1; },
      [](ScenarioResult& r) { r.ap_drops += 1; },
      [](ScenarioResult& r) { r.frames_on_air += 1; },
      [](ScenarioResult& r) { r.clients.pop_back(); },
  };
  for (std::size_t i = 0; i < edits.size(); ++i) {
    ScenarioResult r = sample_result();
    edits[i](r);
    EXPECT_NE(result_digest(r), d) << "edit " << i;
  }
}

TEST(DigestTest, ResultDigestIsOrderSensitive) {
  ScenarioResult a = sample_result();
  ScenarioResult b = a;
  std::swap(b.clients[0], b.clients[1]);
  EXPECT_NE(result_digest(a), result_digest(b));
}

TEST(DigestTest, ResultDigestIsTimeSensitive) {
  ScenarioResult a = sample_result();
  ScenarioResult b = a;
  b.horizon = a.horizon + Time::ns(1);
  EXPECT_NE(result_digest(a), result_digest(b));
  b = a;
  b.clients[0].mean_delay_ms = -0.0;  // equal to 0.0, but not bit-identical
  EXPECT_NE(result_digest(a), result_digest(b));
}

TEST(DigestTest, MetricsDigestFoldsCountersOnly) {
  obs::MetricsRegistry a;
  obs::MetricsRegistry b;
  const std::uint64_t empty = metrics_digest(a);
  a.counter("pkts")->inc(3);
  b.counter("pkts")->inc(4);
  EXPECT_NE(metrics_digest(a), empty);
  EXPECT_NE(metrics_digest(a), metrics_digest(b));
  a.counter("pkts")->inc();
  EXPECT_EQ(metrics_digest(a), metrics_digest(b));
  // Histograms exist only when the streams are attached (keep_obs), so
  // they must not move the digest.
  a.histogram("lat")->observe(5);
  EXPECT_EQ(metrics_digest(a), metrics_digest(b));
}

// -- Hash-salt plumbing ------------------------------------------------------------

TEST(HashSaltTest, SaltActuallyChangesBucketHashes) {
  const net::FlowKey k{net::Ipv4Addr::octets(10, 0, 0, 1), 4000,
                       net::Ipv4Addr::octets(10, 0, 0, 2), 80,
                       net::Protocol::Tcp};
  ScopedHashSalt s1{1};
  const std::size_t h1 = net::FlowKeyHash{}(k);
  const std::size_t a1 = net::Ipv4AddrHash{}(k.src);
  net::set_hash_salt(99991);
  EXPECT_NE(net::FlowKeyHash{}(k), h1);
  EXPECT_NE(net::Ipv4AddrHash{}(k.src), a1);
}

TEST(HashSaltTest, ScopedSaltRestores) {
  const std::uint64_t before = net::hash_salt();
  { ScopedHashSalt s{12345}; EXPECT_EQ(net::hash_salt(), 12345u); }
  EXPECT_EQ(net::hash_salt(), before);
}

// -- End-to-end determinism --------------------------------------------------------

// A short mixed scenario: video + web + ftp touches every subsystem the
// digest folds (schedules, bursts, PSM, TCP splices) in ~seconds of sim
// time.
ScenarioBuilder short_mixed_builder() {
  return ScenarioBuilder{}
      .roles({1, kRoleWeb, kRoleFtp})
      .policy(IntervalPolicy::Variable)
      .duration_s(12.0)
      .web_pages(3)
      .ftp_bytes(200'000);
}

ScenarioConfig short_mixed_config() { return short_mixed_builder().build(); }

TEST(DeterminismTest, SameConfigSameSaltSameDigest) {
  const ScenarioConfig cfg = short_mixed_config();
  ScopedHashSalt s{1};
  const std::uint64_t d1 = run_digest(cfg);
  const std::uint64_t d2 = run_digest(cfg);
  EXPECT_NE(d1, 0u);
  EXPECT_EQ(d1, d2);
}

// The tentpole property: bucket iteration order must never leak into
// simulation behaviour, so permuting every unordered container's layout
// via the hash salt must leave the replay digest untouched.
TEST(DeterminismTest, DigestInvariantUnderHashSalt) {
  const ScenarioConfig cfg = short_mixed_config();
  std::uint64_t d1 = 0;
  std::uint64_t d2 = 0;
  {
    ScopedHashSalt s{1};
    d1 = run_digest(cfg);
  }
  {
    ScopedHashSalt s{99991};
    d2 = run_digest(cfg);
  }
  EXPECT_NE(d1, 0u);
  EXPECT_EQ(d1, d2);
}

TEST(DeterminismTest, DigestIsSensitiveToConfig) {
  ScopedHashSalt s{1};
  ScenarioConfig a = short_mixed_config();
  ScenarioConfig b = a;
  b.seed = a.seed + 1;
  EXPECT_NE(run_digest(a), run_digest(b));
}

// The replay digest is the result's: the monitoring trace, the observer
// and a metric nobody publishes leave it where it was.
TEST(DeterminismTest, DigestIgnoresTraceObserverAndExtraCounters) {
  ScopedHashSalt s{1};
  ScenarioConfig cfg = short_mixed_config();
  const std::uint64_t d = run_digest(cfg);
  EXPECT_NE(d, 0u);
  cfg.keep_obs = true;
  cfg.keep_trace = true;
  ScenarioRun run{cfg, [](Testbed& bed) {
                    bed.metrics()->counter("test.extra")->inc();
                  }};
  run.advance(run.horizon());
  const ScenarioResult res = run.finish();
  EXPECT_GT(res.trace.size(), 0u);
  EXPECT_EQ(result_digest(res), d);
}

// Paced datagrams reach the proxy without events, and a run that stops
// between events settles them, so a run advanced in slices must be the
// run advanced in one go: same ScenarioResult, same digests.  A
// saturated bursty ladder cell makes the proxy drop datagrams, whose
// timeline records wait for the proxy's next read rather than the slice
// boundary.  Variable intervals keep SRPs off the 500 ms slice grid, so
// slices end between reads.
TEST(DeterminismTest, SlicedAdvanceMatchesOneAdvance) {
  const ScenarioConfig cfg =
      ScenarioBuilder{}
          .video(12, 2)  // 256 kbps
          .video_adaptive(false)
          .policy(IntervalPolicy::Variable)  // SRPs off the slice grid
          .duration_s(40.0)
          .channel(channel::ChannelSpec::ladder(3, 0.85))
          .seed(1)  // its fades overflow queues: about 700 drops
          .build();
  ScenarioRun whole{cfg};
  whole.advance(whole.horizon());
  const ScenarioResult a = whole.finish();

  ScenarioRun sliced{cfg};
  std::uint64_t seen = 0;  // datagrams queued or dropped so far
  for (Time t = Time::zero(); t < sliced.horizon();) {
    t = std::min(t + Time::ms(500), sliced.horizon());
    sliced.advance(t);
    const proxy::ProxyStats& ps = sliced.bed().proxy().stats();
    EXPECT_GE(ps.queued_packets + ps.queue_drops, seen);
    seen = ps.queued_packets + ps.queue_drops;
  }
  const ScenarioResult b = sliced.finish();

  ASSERT_GT(a.proxy_stats.queue_drops, 0u);
  EXPECT_EQ(seen, b.proxy_stats.queued_packets + b.proxy_stats.queue_drops);
  EXPECT_EQ(a.proxy_stats.queued_packets, b.proxy_stats.queued_packets);
  EXPECT_EQ(a.proxy_stats.queue_drops, b.proxy_stats.queue_drops);
  EXPECT_EQ(a.proxy_stats.burst_packets, b.proxy_stats.burst_packets);
  EXPECT_EQ(a.proxy_stats.udp_bytes_burst, b.proxy_stats.udp_bytes_burst);
  EXPECT_EQ(a.proxy_stats.schedules_sent, b.proxy_stats.schedules_sent);
  EXPECT_EQ(a.ap_drops, b.ap_drops);
  EXPECT_EQ(a.frames_on_air, b.frames_on_air);
  ASSERT_EQ(a.clients.size(), b.clients.size());
  for (std::size_t i = 0; i < a.clients.size(); ++i) {
    EXPECT_EQ(a.clients[i].packets_received, b.clients[i].packets_received);
    EXPECT_EQ(a.clients[i].bytes_received, b.clients[i].bytes_received);
    EXPECT_EQ(a.clients[i].delay_samples, b.clients[i].delay_samples);
    EXPECT_EQ(a.clients[i].mean_delay_ms, b.clients[i].mean_delay_ms);
    EXPECT_EQ(a.clients[i].energy_mj, b.clients[i].energy_mj);
    EXPECT_EQ(a.clients[i].sleeps, b.clients[i].sleeps);
  }
  EXPECT_EQ(result_digest(a), result_digest(b));
  EXPECT_EQ(observer_digest(*whole.bed().observer()),
            observer_digest(*sliced.bed().observer()));
}

// The acceptance property for the fault layer: a run with the full fault
// battery armed — Gilbert-Elliott bursty loss, every window kind, k-repeat
// and miss escalation — stays a pure function of its config.  Channel
// streams are named (derived from the run seed, never sim_.rng()) and the
// windows draw nothing, so the hash salt must not leak into any loss draw
// or recovery path.
ScenarioConfig faulted_config() {
  ScenarioBuilder b = short_mixed_builder();
  // Bad sojourns (~100 ticks, 2 s) span multiple SRPs.
  b.channel(channel::ChannelSpec::two_state(0.02, 0.01, 0.001, 0.9));
  auto& f = b.fault_spec();
  f.fade(testbed_client_ip(0), Time::ms(2500), Time::ms(1200));
  f.ap_stall(Time::ms(5000), Time::ms(700));
  f.link_flap(Time::ms(7000), Time::ms(400));
  f.proxy_pause(Time::ms(9000), Time::ms(600));
  return b.schedule_repeats(2).miss_escalation().build();
}

TEST(DeterminismTest, FaultedDigestInvariantUnderHashSalt) {
  const ScenarioConfig cfg = faulted_config();
  std::uint64_t d1 = 0;
  std::uint64_t d2 = 0;
  {
    ScopedHashSalt s{1};
    d1 = run_digest(cfg);
  }
  {
    ScopedHashSalt s{99991};
    d2 = run_digest(cfg);
  }
  EXPECT_NE(d1, 0u);
  EXPECT_EQ(d1, d2);
}

TEST(DeterminismTest, DigestIsSensitiveToFaultSpec) {
  ScopedHashSalt s{1};
  const ScenarioConfig a = short_mixed_config();
  ScenarioConfig b = a;
  b.fault.fade(testbed_client_ip(0), Time::ms(2500), Time::ms(1200));
  EXPECT_NE(run_digest(a), run_digest(b));
}

// -- Policy zoo determinism --------------------------------------------------------

// Each new policy on a bursty per-client channel: digests must survive the
// hash-salt permutation (channel streams are named, per-client chain rows
// follow attach order, policy layout order never follows bucket order).
ScenarioConfig channel_policy_config(IntervalPolicy p) {
  return ScenarioBuilder{}
      .roles({1, 1, 2})
      .policy(p)
      .duration_s(10.0)
      .channel(channel::ChannelSpec::ladder(3, 0.8))
      .build();
}

class PolicyDeterminismTest : public ::testing::TestWithParam<IntervalPolicy> {
};

TEST_P(PolicyDeterminismTest, DigestInvariantUnderHashSalt) {
  const ScenarioConfig cfg = channel_policy_config(GetParam());
  std::uint64_t d1 = 0;
  std::uint64_t d2 = 0;
  {
    ScopedHashSalt s{1};
    d1 = run_digest(cfg);
  }
  {
    ScopedHashSalt s{99991};
    d2 = run_digest(cfg);
  }
  EXPECT_NE(d1, 0u);
  EXPECT_EQ(d1, d2);
}

TEST_P(PolicyDeterminismTest, SameConfigSameDigest) {
  const ScenarioConfig cfg = channel_policy_config(GetParam());
  ScopedHashSalt s{1};
  EXPECT_EQ(run_digest(cfg), run_digest(cfg));
}

INSTANTIATE_TEST_SUITE_P(Zoo, PolicyDeterminismTest,
                         ::testing::Values(IntervalPolicy::LongestQueue500,
                                           IntervalPolicy::Opportunistic500,
                                           IntervalPolicy::Probabilistic500));

// Channel ladder, fault windows and a churn storm compose: a bursty
// per-client ladder under the channel-aware opportunistic policy, with a
// deep fade, an AP stall and a storm flapping a quarter of the cell, builds,
// passes every end-of-run audit (run_scenario finalizes them), and replays
// identically under a different hash salt.
ScenarioConfig channel_fault_churn_config() {
  ScenarioBuilder b = ScenarioBuilder{}
                          .video(3, 1)
                          .video(2, 2)
                          .web(1)
                          .policy(IntervalPolicy::Opportunistic500)
                          .duration_s(14.0)
                          .channel(channel::ChannelSpec::ladder(3, 0.85));
  b.fault_spec()
      .fade(testbed_client_ip(0), Time::ms(3000), Time::ms(1500))
      .ap_stall(Time::ms(6000), Time::ms(700))
      .churn_storm(Time::seconds(2.0), Time::seconds(10.0), 0.25);
  return b.build();
}

TEST(DeterminismTest, ChannelFaultsAndChurnComposeAndDigestIsSaltInvariant) {
  const ScenarioConfig cfg = channel_fault_churn_config();
  std::uint64_t d1 = 0;
  std::uint64_t d2 = 0;
  {
    ScopedHashSalt s{1};
    d1 = run_digest(cfg);
  }
  {
    ScopedHashSalt s{99991};
    d2 = run_digest(cfg);
  }
  EXPECT_NE(d1, 0u);
  EXPECT_EQ(d1, d2);
}

TEST(DeterminismTest, DigestIsSensitiveToChannelSpec) {
  ScopedHashSalt s{1};
  const ScenarioConfig a =
      channel_policy_config(IntervalPolicy::Opportunistic500);
  ScenarioConfig b = a;
  b.channel = channel::ChannelSpec::ladder(3, 0.3);  // calmer ladder
  EXPECT_NE(run_digest(a), run_digest(b));
}

// -- Observer retention ------------------------------------------------------------

// Neither digest reads the streams, so attaching every gauge, histogram
// and timeline (keep_obs) moves neither: each config runs once without
// the streams (the default) and once with them.
struct RetentionCase {
  const char* name;
  ScenarioConfig (*config)();
};

// The case's name is its printed value, so the test names stay stable.
void PrintTo(const RetentionCase& c, std::ostream* os) { *os << c.name; }

class ObsRetentionTest : public ::testing::TestWithParam<RetentionCase> {};

TEST_P(ObsRetentionTest, DigestIndependentOfTimelineRetention) {
  ScopedHashSalt s{1};
  ScenarioConfig cfg = GetParam().config();
  cfg.keep_obs = false;
  ScenarioRun streamed{cfg};
  streamed.advance(streamed.horizon());
  const std::uint64_t sd = result_digest(streamed.finish());
  EXPECT_NE(sd, 0u);
  cfg.keep_obs = true;
  ScenarioRun retained{cfg};
  retained.advance(retained.horizon());
  EXPECT_EQ(result_digest(retained.finish()), sd);
  EXPECT_EQ(run_digest(cfg), sd);

  const auto so = streamed.bed().observer();
  const auto ro = retained.bed().observer();
  EXPECT_EQ(observer_digest(*so), observer_digest(*ro));
  EXPECT_EQ(so->timeline.size(), 0u);
  EXPECT_EQ(so->timeline.dropped(), 0u);
  EXPECT_GT(ro->timeline.size(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    ObsRetention, ObsRetentionTest,
    ::testing::Values(
        RetentionCase{"ShortMixed", short_mixed_config},
        RetentionCase{"Faulted", faulted_config},
        RetentionCase{"ChannelFaultsAndChurn", channel_fault_churn_config},
        RetentionCase{"Fig7Slotted",
                      [] {
                        return ScenarioBuilder::fig7(2, 0.33)
                            .duration_s(10.0)
                            .build();
                      }},
        RetentionCase{"Opportunistic500",
                      [] {
                        return channel_policy_config(
                            IntervalPolicy::Opportunistic500);
                      }},
        RetentionCase{"BufferedPassthrough",
                      [] {
                        return short_mixed_builder()
                            .proxy_mode(proxy::ProxyMode::BufferedPassthrough)
                            .build();
                      }}));

// -- Pinned digests (reference toolchain) ------------------------------------------

// Bit-exact fingerprints of the example scenarios.  Any diff here means a
// change altered what a run produced.  Values match tools/digest/pp_digest
// under PP_HASH_SEED=1 on the reference toolchain.
//
// Every pin moved once, on purpose, when the replay digest became
// result_digest (a fold of the ScenarioResult) instead of a fold of the
// observer's timeline and counters; every ScenarioResult was bit-identical
// across that change.
#if defined(__GLIBCXX__) && defined(__x86_64__)

ScenarioConfig digest_base() {
  ScenarioConfig cfg;
  cfg.duration_s = 20.0;
  cfg.web_pages = 4;
  cfg.ftp_bytes = 400'000;
  return cfg;
}

TEST(PinnedDigestTest, LegacyScenariosUnchanged) {
  ScopedHashSalt s{1};
  ScenarioConfig all_video = digest_base();
  all_video.roles = {1, 1, 2, 3};
  EXPECT_EQ(run_digest(all_video), 0x19a4882910c21571ull);

  ScenarioConfig mixed = digest_base();
  mixed.roles = {1, 2, kRoleWeb, kRoleFtp};
  mixed.policy = IntervalPolicy::Variable;
  EXPECT_EQ(run_digest(mixed), 0x66629a144a24372aull);

  ScenarioConfig web = digest_base();
  web.roles = {kRoleWeb, kRoleWeb};
  web.policy = IntervalPolicy::Fixed100;
  EXPECT_EQ(run_digest(web), 0xdbd8ebc95a43ef10ull);
}

TEST(PinnedDigestTest, FaultedScenariosUnchangedAcrossGeDelegation) {
  ScopedHashSalt s{1};
  // The full fault battery (faulted_config above).
  EXPECT_EQ(run_digest(faulted_config()), 0x6b8566650a226d4cull);

  // Pure Gilbert-Elliott corruption, no windows (pp_digest's ge_faulted).
  ScenarioConfig ge = digest_base();
  ge.roles = {1, 1, 2, kRoleWeb};
  ge.duration_s = 15.0;
  ge.web_pages = 3;
  ge.channel = channel::ChannelSpec::two_state(0.01, 0.05, 0.001, 0.85);
  EXPECT_EQ(run_digest(ge), 0xc36a835fefc94d69ull);
}

#endif  // __GLIBCXX__ && __x86_64__

}  // namespace
}  // namespace pp::exp
