// Battery tests: builder validation, the parallel-equals-serial
// determinism contract of bench::run_battery, and worker-count resolution.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "bench/battery.hpp"
#include "exp/builder.hpp"
#include "exp/digest.hpp"
#include "exp/parallel.hpp"

namespace pp::exp {
namespace {

using sim::Time;

// Small-but-real scenario: one 56K client, a few seconds.
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

// Client addresses are 16-bit indices: past kMaxTestbedClients they wrap
// onto earlier clients' addresses, which the proxy cannot tell apart.
TEST(Builder, RejectsMoreClientsThanAddresses) {
  EXPECT_NO_THROW(ScenarioBuilder{}.video(65'534, 0).build());
  try {
    ScenarioBuilder{}.video(65'535, 0).build();
    ADD_FAILURE() << "65535 clients built";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string{e.what()}.find("roles"), std::string::npos)
        << e.what();
  }
  EXPECT_THROW(ScenarioBuilder{}.roles(std::vector<int>(65'536, kRoleIdle))
                   .build(),
               std::invalid_argument);
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
  // fig6 retains the trace for its postmortem replay.
  EXPECT_TRUE(ScenarioBuilder::fig6().build().keep_trace);
}

// -- Parallel == serial ------------------------------------------------------------

TEST(SweepParallel, DigestSequenceMatchesSerial) {
  const std::vector<ScenarioConfig> configs{
      tiny(1).build(),
      tiny(2).build(),
      tiny(3).build(),
      tiny(4, 5.0).build(),
  };
  const auto digests = [&configs](unsigned threads) {
    bench::BatteryOptions opts;
    opts.threads = threads;
    opts.progress = false;
    std::vector<std::uint64_t> out;
    for (const ScenarioResult& r : bench::run_battery(configs, opts)) {
      out.push_back(result_digest(r));
    }
    return out;
  };
  const auto s = digests(1);
  const auto p = digests(4);
  ASSERT_EQ(s.size(), configs.size());
  EXPECT_EQ(s, p);
  // Distinct seeds are distinct runs: results are not shuffled or aliased.
  EXPECT_NE(s[0], s[1]);
}

TEST(SweepParallel, ProgressReachesTotalMonotonically) {
  bench::BatteryOptions opts;
  opts.threads = 2;
  ::testing::internal::CaptureStderr();
  const auto results =
      bench::run_battery({tiny(1).build(), tiny(2).build()}, opts);
  const std::string err = ::testing::internal::GetCapturedStderr();
  EXPECT_EQ(results.size(), 2u);

  // Every progress update reads "[battery] <done>/2 done".
  std::size_t last_done = 0;
  std::size_t calls = 0;
  const std::string tag = "[battery] ";
  for (std::size_t at = err.find(tag); at != std::string::npos;
       at = err.find(tag, at + 1)) {
    const char* p = err.c_str() + at + tag.size();
    char* end = nullptr;
    const std::size_t done = std::strtoul(p, &end, 10);
    if (std::string{end}.rfind("/2 done", 0) != 0) continue;  // the footer
    EXPECT_GE(done, last_done);
    last_done = done;
    ++calls;
  }
  EXPECT_EQ(calls, 2u);
  EXPECT_EQ(last_done, 2u);
}

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
