// Sweep engine tests: builder validation, content-addressed cache keys,
// RunRecord round-trip exactness, cold/warm cache behaviour, and the
// parallel-equals-serial determinism contract.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "exp/builder.hpp"
#include "exp/parallel.hpp"
#include "exp/sweep/cache.hpp"
#include "exp/sweep/key.hpp"
#include "exp/sweep/sweep.hpp"
#include "obs/hooks.hpp"
#include "obs/metrics.hpp"
#include "bench/report.hpp"

namespace pp::exp {
namespace {

namespace fs = std::filesystem;
using sim::Time;

// A fresh cache directory per test, wiped on construction and teardown.
struct ScopedCacheDir {
  explicit ScopedCacheDir(const std::string& tag)
      : path{fs::path{::testing::TempDir()} /
             ("pp_sweep_test_" + tag + "." + std::to_string(::getpid()))} {
    fs::remove_all(path);
  }
  ~ScopedCacheDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  fs::path path;
  std::string str() const { return path.string(); }
};

// Small-but-real scenario for cache tests: one 56K client, a few seconds.
ScenarioBuilder tiny(std::uint64_t seed, double duration_s = 4.0) {
  return ScenarioBuilder{}
      .video(1, 0)
      .policy(IntervalPolicy::Fixed500)
      .seed(seed)
      .duration_s(duration_s);
}

// -- Builder validation ------------------------------------------------------------

TEST(Builder, RejectsEmptyRoles) {
  EXPECT_THROW(ScenarioBuilder{}.build(), std::invalid_argument);
}

TEST(Builder, RejectsUnknownFidelity) {
  EXPECT_THROW(ScenarioBuilder{}.video(1, 99).build(), std::invalid_argument);
  EXPECT_THROW(ScenarioBuilder{}.roles({-7}).build(), std::invalid_argument);
}

TEST(Builder, RejectsSlottedWeightOnNonSlottedPolicy) {
  EXPECT_THROW(ScenarioBuilder{}
                   .video(1, 0)
                   .web(1)
                   .policy(IntervalPolicy::Fixed500)
                   .slotted_tcp_weight(0.33)
                   .build(),
               std::invalid_argument);
}

TEST(Builder, RejectsSlottedPolicyWithoutBothKinds) {
  EXPECT_THROW(ScenarioBuilder{}
                   .video(2, 0)
                   .policy(IntervalPolicy::SlottedStatic500)
                   .slotted_tcp_weight(0.33)
                   .build(),
               std::invalid_argument);
  EXPECT_THROW(ScenarioBuilder{}
                   .web(2)
                   .policy(IntervalPolicy::SlottedStatic500)
                   .slotted_tcp_weight(0.33)
                   .build(),
               std::invalid_argument);
}

TEST(Builder, RejectsOutOfRangeSlottedWeight) {
  auto b = ScenarioBuilder{}.video(1, 0).web(1).policy(
      IntervalPolicy::SlottedStatic500);
  EXPECT_THROW(ScenarioBuilder{b}.slotted_tcp_weight(0.0).build(),
               std::invalid_argument);
  EXPECT_THROW(ScenarioBuilder{b}.slotted_tcp_weight(1.0).build(),
               std::invalid_argument);
  EXPECT_NO_THROW(ScenarioBuilder{b}.slotted_tcp_weight(0.5).build());
}

TEST(Builder, RejectsNonPositiveDuration) {
  EXPECT_THROW(tiny(1).duration_s(0.0).build(), std::invalid_argument);
  EXPECT_THROW(tiny(1).duration_s(-3.0).build(), std::invalid_argument);
}

TEST(Builder, RejectsBadGeProbabilities) {
  EXPECT_THROW(
      tiny(1).channel(channel::ChannelSpec::two_state(1.5, 0.02, 0.0, 0.9))
          .build(),
      std::invalid_argument);
}

TEST(Builder, RejectsFaultWindowPastHorizon) {
  auto b = tiny(1, 4.0);
  b.fault_spec().ap_stall(Time::ms(3800), Time::ms(500));  // ends at 4.3 s
  EXPECT_THROW(b.build(), std::invalid_argument);
}

TEST(Builder, PresetsBuildCleanly) {
  for (const auto& [name, pattern] : presets::fig4_patterns()) {
    for (const auto& [pname, pol] : presets::dynamic_intervals()) {
      EXPECT_NO_THROW(ScenarioBuilder::fig4(pattern, pol).build()) << name;
    }
  }
  EXPECT_NO_THROW(ScenarioBuilder::fig6().build());
  EXPECT_NO_THROW(ScenarioBuilder::fig7(2, 0.33).build());
  EXPECT_NO_THROW(ScenarioBuilder::fault_battery(6, 120.0, true).build());
  EXPECT_NO_THROW(ScenarioBuilder::degradation(40.0).build());
  // fig6 retains the trace for postmortems, so it is never cacheable.
  EXPECT_TRUE(ScenarioBuilder::fig6().build().keep_trace);
  EXPECT_FALSE(sweep::cacheable(ScenarioBuilder::fig6().build()));
}

// -- Cache keys --------------------------------------------------------------------

TEST(SweepKey, StableAndSaltSensitive) {
  const auto cfg = tiny(7).build();
  EXPECT_EQ(sweep::config_key(cfg), sweep::config_key(cfg));
  EXPECT_NE(sweep::config_key(cfg), sweep::config_key(cfg, 123));
  const std::string hex = sweep::key_hex(sweep::config_key(cfg));
  EXPECT_EQ(hex.size(), 16u);
  EXPECT_EQ(hex.find_first_not_of("0123456789abcdef"), std::string::npos);
}

// Every knob the builder exposes must reach the canonical serialization;
// a field the key misses would alias distinct configs onto one entry.
TEST(SweepKey, EveryMutationChangesTheKey) {
  const auto base = tiny(7).build();
  const std::uint64_t k0 = sweep::config_key(base);
  std::vector<ScenarioConfig> variants;
  variants.push_back(tiny(8).build());
  variants.push_back(tiny(7, 5.0).build());
  variants.push_back(tiny(7).video(1, 1).build());
  variants.push_back(tiny(7).policy(IntervalPolicy::Fixed100).build());
  variants.push_back(tiny(7).early_transition(Time::ms(4)).build());
  variants.push_back(tiny(7).schedule_repeats(2).build());
  variants.push_back(tiny(7).miss_escalation().build());
  variants.push_back(tiny(7).wireless_p_loss(0.05).build());
  variants.push_back(tiny(7).cost_model_scale(0.5).build());
  variants.push_back(tiny(7).naive_clients().build());
  variants.push_back(tiny(7).ftp_bytes(123).build());
  variants.push_back(tiny(7).web_pages(9).build());
  variants.push_back(tiny(7).video_adaptive(false).build());
  variants.push_back(
      tiny(7).proxy_mode(proxy::ProxyMode::Passthrough).build());
  variants.push_back(tiny(7).ap_jitter(0.1, Time::ms(6)).build());
  variants.push_back(
      tiny(7).channel(channel::ChannelSpec::two_state(0.01, 0.5, 0.0, 0.9))
          .build());
  {
    auto b = tiny(7);
    b.fault_spec().ap_stall(Time::ms(1000), Time::ms(200));
    variants.push_back(b.build());
  }
  for (std::size_t i = 0; i < variants.size(); ++i) {
    EXPECT_NE(sweep::config_key(variants[i]), k0) << "variant " << i;
    for (std::size_t j = i + 1; j < variants.size(); ++j) {
      EXPECT_NE(sweep::config_key(variants[i]), sweep::config_key(variants[j]))
          << i << " vs " << j;
    }
  }
}

// Fleet-level axes (cell count, backbone latency, cross-traffic shape) and
// every embedded cell-level axis must reach the multicell key.
TEST(SweepKey, MulticellAxesChangeTheKey) {
  MultiCellConfig base;
  base.num_cells = 3;
  base.cell = tiny(7).build();
  const std::uint64_t k0 = sweep::multicell_key(base);
  EXPECT_EQ(sweep::multicell_key(base), k0);  // stable
  // Fleet keys and scenario keys live in disjoint namespaces even for
  // equal salt inputs.
  EXPECT_NE(k0, sweep::config_key(base.cell));

  std::vector<MultiCellConfig> variants;
  {
    auto v = base;
    v.num_cells = 4;
    variants.push_back(v);
  }
  {
    auto v = base;
    v.backbone_latency = sim::Time::ms(35);
    variants.push_back(v);
  }
  {
    auto v = base;
    v.cross.enabled = false;
    variants.push_back(v);
  }
  {
    auto v = base;
    v.cross.period = sim::Time::ms(111);
    variants.push_back(v);
  }
  {
    auto v = base;
    v.cross.bytes = 601;
    variants.push_back(v);
  }
  {
    auto v = base;
    v.cross.fanout = 2;
    variants.push_back(v);
  }
  {
    auto v = base;
    v.cross.start_s = 1.5;
    variants.push_back(v);
  }
  {
    auto v = base;
    v.cell = tiny(8).build();  // cell-level change propagates to fleet key
    variants.push_back(v);
  }
  {
    auto v = base;
    v.cell.per_client_obs = false;
    variants.push_back(v);
  }
  for (std::size_t i = 0; i < variants.size(); ++i) {
    EXPECT_NE(sweep::multicell_key(variants[i]), k0) << "variant " << i;
    for (std::size_t j = i + 1; j < variants.size(); ++j) {
      EXPECT_NE(sweep::multicell_key(variants[i]),
                sweep::multicell_key(variants[j]))
          << i << " vs " << j;
    }
  }
}

// -- RunRecord round trip ----------------------------------------------------------

TEST(RunRecord, RoundTripsBitExactly) {
  const auto res = run_scenario(tiny(3).build());
  const sweep::RunRecord rec = sweep::make_record(res, 0xDEADBEEFu);

  std::stringstream ss;
  sweep::write_record(ss, rec);
  sweep::RunRecord back;
  ASSERT_TRUE(sweep::read_record(ss, back));

  // Serialize the reloaded record again: hexfloat round-trips bit-exactly,
  // so the two renderings must be byte-identical.
  std::stringstream ss2;
  sweep::write_record(ss2, back);
  EXPECT_EQ(ss.str(), ss2.str());

  ASSERT_EQ(back.clients.size(), rec.clients.size());
  for (std::size_t i = 0; i < rec.clients.size(); ++i) {
    EXPECT_EQ(back.clients[i].saved_pct, rec.clients[i].saved_pct);  // exact
    EXPECT_EQ(back.clients[i].energy_mj, rec.clients[i].energy_mj);
    EXPECT_EQ(back.clients[i].bytes_received, rec.clients[i].bytes_received);
    EXPECT_EQ(back.clients[i].role, rec.clients[i].role);
    EXPECT_EQ(back.clients[i].ip.raw(), rec.clients[i].ip.raw());
  }
  EXPECT_EQ(back.horizon_ns, rec.horizon_ns);
  EXPECT_EQ(back.digest, rec.digest);
  EXPECT_EQ(back.proxy_stats.schedules_sent, rec.proxy_stats.schedules_sent);
}

TEST(RunRecord, ReadRejectsGarbage) {
  std::stringstream ss{"not a record\n"};
  sweep::RunRecord out;
  EXPECT_FALSE(sweep::read_record(ss, out));
}

// -- Cache cold/warm ---------------------------------------------------------------

TEST(SweepCache, ColdMissesThenWarmHitsByteIdentically) {
  ScopedCacheDir dir{"coldwarm"};
  const std::vector<sweep::Item> items{
      {"a", tiny(1).build()},
      {"b", tiny(2).build()},
  };
  sweep::Options opts;
  opts.cache_dir = dir.str();
  opts.threads = 1;

  auto render = [](const sweep::SweepResult& sr) {
    bench::Report rep{"sweep_test"};
    for (const auto& oc : sr.outcomes) {
      rep.row()
          .cell("label", oc.label)
          .cell("saved%", oc.record.clients[0].saved_pct, 3)
          .cell("energy", oc.record.clients[0].energy_mj, 6)
          .cell("digest", oc.record.digest);
    }
    return rep.json();
  };

  const auto cold = sweep::run(items, opts);
  EXPECT_EQ(cold.stats.total, 2u);
  EXPECT_EQ(cold.stats.hits, 0u);
  EXPECT_EQ(cold.stats.misses, 2u);

  const auto warm = sweep::run(items, opts);
  EXPECT_EQ(warm.stats.hits, 2u);
  EXPECT_EQ(warm.stats.misses, 0u);
  for (std::size_t i = 0; i < items.size(); ++i) {
    EXPECT_TRUE(warm.outcomes[i].cache_hit);
    EXPECT_EQ(warm.outcomes[i].key, cold.outcomes[i].key);
    EXPECT_EQ(warm.outcomes[i].record.digest, cold.outcomes[i].record.digest);
  }
  EXPECT_EQ(render(cold), render(warm));
}

TEST(SweepCache, SaltChangeMisses) {
  ScopedCacheDir dir{"salt"};
  const std::vector<sweep::Item> items{{"a", tiny(1).build()}};
  sweep::Options opts;
  opts.cache_dir = dir.str();
  opts.threads = 1;
  (void)sweep::run(items, opts);  // populate

  opts.salt = sweep::kCodeVersionSalt + 1;
  const auto r = sweep::run(items, opts);
  EXPECT_EQ(r.stats.hits, 0u);
  EXPECT_EQ(r.stats.misses, 1u);
}

TEST(SweepCache, ConfigChangeMisses) {
  ScopedCacheDir dir{"cfg"};
  sweep::Options opts;
  opts.cache_dir = dir.str();
  opts.threads = 1;
  (void)sweep::run({{"a", tiny(1).build()}}, opts);
  const auto r = sweep::run({{"a", tiny(1, 5.0).build()}}, opts);
  EXPECT_EQ(r.stats.hits, 0u);
  EXPECT_EQ(r.stats.misses, 1u);
}

TEST(SweepCache, DisabledCacheAlwaysRuns) {
  ScopedCacheDir dir{"nocache"};
  sweep::Options opts;
  opts.cache_dir = dir.str();
  opts.threads = 1;
  opts.use_cache = false;
  (void)sweep::run({{"a", tiny(1).build()}}, opts);
  const auto r = sweep::run({{"a", tiny(1).build()}}, opts);
  EXPECT_EQ(r.stats.hits, 0u);
  EXPECT_EQ(r.stats.misses, 1u);
}

TEST(SweepCache, UncacheableItemsRunLiveWithFullResult) {
  ScopedCacheDir dir{"live"};
  sweep::Options opts;
  opts.cache_dir = dir.str();
  opts.threads = 1;
  const std::vector<sweep::Item> items{
      {"traced", tiny(1).keep_trace().build()}};
  const auto cold = sweep::run(items, opts);
  EXPECT_EQ(cold.stats.uncacheable, 1u);
  ASSERT_NE(cold.outcomes[0].live, nullptr);
  EXPECT_GT(cold.outcomes[0].live->trace.size(), 0u);
  // Still uncacheable on the second pass: never stored, never a hit.
  const auto warm = sweep::run(items, opts);
  EXPECT_EQ(warm.stats.uncacheable, 1u);
  EXPECT_EQ(warm.stats.hits, 0u);
}

// -- Parallel == serial ------------------------------------------------------------

TEST(SweepParallel, DigestSequenceMatchesSerial) {
  const std::vector<sweep::Item> items{
      {"a", tiny(1).build()},
      {"b", tiny(2).build()},
      {"c", tiny(3).build()},
      {"d", tiny(4, 5.0).build()},
  };
  sweep::Options serial;
  serial.use_cache = false;
  serial.threads = 1;
  sweep::Options parallel = serial;
  parallel.threads = 4;

  const auto s = sweep::run(items, serial);
  const auto p = sweep::run(items, parallel);
  ASSERT_EQ(s.outcomes.size(), p.outcomes.size());
  for (std::size_t i = 0; i < s.outcomes.size(); ++i) {
    EXPECT_EQ(s.outcomes[i].label, items[i].label);
    EXPECT_EQ(p.outcomes[i].label, items[i].label);
    EXPECT_EQ(s.outcomes[i].record.digest, p.outcomes[i].record.digest) << i;
#if PP_OBS_ENABLED
    EXPECT_NE(s.outcomes[i].record.digest, 0u);
#endif
  }
}

TEST(SweepParallel, ProgressReachesTotalMonotonically) {
  const std::vector<sweep::Item> items{
      {"a", tiny(1).build()},
      {"b", tiny(2).build()},
  };
  sweep::Options opts;
  opts.use_cache = false;
  opts.threads = 2;
  std::size_t last_done = 0;
  std::size_t calls = 0;
  opts.on_progress = [&](const sweep::Progress& pr) {
    EXPECT_GE(pr.done, last_done);
    EXPECT_EQ(pr.total, 2u);
    last_done = pr.done;
    ++calls;
  };
  (void)sweep::run(items, opts);
  EXPECT_GT(calls, 0u);
  EXPECT_EQ(last_done, 2u);
}

#if PP_OBS_ENABLED
TEST(SweepMetrics, CountersLandInRegistry) {
  ScopedCacheDir dir{"metrics"};
  obs::MetricsRegistry reg;
  sweep::Options opts;
  opts.cache_dir = dir.str();
  opts.threads = 1;
  opts.metrics = &reg;
  const std::vector<sweep::Item> items{
      {"a", tiny(1).build()},
      {"traced", tiny(2).keep_trace().build()},
  };
  (void)sweep::run(items, opts);
  (void)sweep::run(items, opts);
  EXPECT_EQ(reg.counter("sweep.cache_misses")->value(), 1u);
  EXPECT_EQ(reg.counter("sweep.cache_hits")->value(), 1u);
  EXPECT_EQ(reg.counter("sweep.uncacheable")->value(), 2u);
  EXPECT_EQ(reg.counter("sweep.runs")->value(), 3u);  // 1 miss + 2 live
}
#endif

// -- Thread resolution -------------------------------------------------------------

// Restores (or clears) an environment variable on scope exit.
struct ScopedEnv {
  ScopedEnv(const char* name, const char* value) : name_{name} {
    const char* prev = std::getenv(name);
    had_ = prev != nullptr;
    if (had_) prev_ = prev;
    if (value) {
      ::setenv(name, value, 1);
    } else {
      ::unsetenv(name);
    }
  }
  ~ScopedEnv() {
    if (had_) {
      ::setenv(name_, prev_.c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }
  const char* name_;
  std::string prev_;
  bool had_ = false;
};

TEST(ResolveThreads, ExplicitArgumentWins) {
  ScopedEnv env{"PP_THREADS", "7"};
  EXPECT_EQ(resolve_threads(3, 100), 3u);
}

TEST(ResolveThreads, HonorsEnvWhenUnpinned) {
  ScopedEnv env{"PP_THREADS", "5"};
  EXPECT_EQ(resolve_threads(0, 100), 5u);
}

TEST(ResolveThreads, IgnoresGarbageEnv) {
  ScopedEnv env{"PP_THREADS", "banana"};
  const unsigned t = resolve_threads(0, 100);
  EXPECT_GE(t, 1u);
  if (kSanitizedBuild) {
    EXPECT_EQ(t, 1u);
  }
}

TEST(ResolveThreads, CapsAtTaskCount) {
  ScopedEnv env{"PP_THREADS", "64"};
  EXPECT_EQ(resolve_threads(0, 2), 2u);
  EXPECT_EQ(resolve_threads(8, 3), 3u);
  EXPECT_EQ(resolve_threads(1, 0), 1u);
}

TEST(ResolveThreads, SanitizedBuildsDefaultToOne) {
  ScopedEnv env{"PP_THREADS", nullptr};
  if (kSanitizedBuild) {
    EXPECT_EQ(resolve_threads(0, 100), 1u);
  } else {
    EXPECT_GE(resolve_threads(0, 100), 1u);
  }
}

}  // namespace
}  // namespace pp::exp
