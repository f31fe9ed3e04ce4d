#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <thread>

#include "exp/builder.hpp"
#include "exp/parallel.hpp"
#include "exp/replicate.hpp"

namespace pp::exp {
namespace {

TEST(RunParallel, ResultsLandInOrder) {
  std::vector<std::function<int()>> tasks;
  for (int i = 0; i < 32; ++i) tasks.push_back([i] { return i * i; });
  const auto out = run_parallel(tasks, 4);
  ASSERT_EQ(out.size(), 32u);
  for (int i = 0; i < 32; ++i) EXPECT_EQ(out[i], i * i);
}

TEST(RunParallel, WidthOneRunsOnCallingThread) {
  // The caller is one of the workers, so a width-1 call spawns no thread.
  const std::vector<std::function<std::thread::id()>> tasks(
      3, [] { return std::this_thread::get_id(); });
  for (const std::thread::id id : run_parallel(tasks, 1)) {
    EXPECT_EQ(id, std::this_thread::get_id());
  }
}

TEST(RunParallel, ThrowingTaskRethrowsInCaller) {
  // Before the fix this escaped the jthread and called std::terminate.
  std::vector<std::function<int()>> tasks;
  for (int i = 0; i < 16; ++i) {
    tasks.push_back([i]() -> int {
      if (i == 5) throw std::runtime_error("task 5 failed");
      return i;
    });
  }
  EXPECT_THROW(
      {
        try {
          run_parallel(tasks, 4);
        } catch (const std::runtime_error& e) {
          EXPECT_STREQ(e.what(), "task 5 failed");
          throw;
        }
      },
      std::runtime_error);
}

TEST(RunParallel, FailureStopsLaunchingQueuedTasks) {
  // With a single worker the order is deterministic: once task 0 throws,
  // no later task may start.
  std::atomic<int> started{0};
  std::vector<std::function<int()>> tasks;
  tasks.push_back([]() -> int { throw std::runtime_error("boom"); });
  for (int i = 1; i < 8; ++i) {
    tasks.push_back([&started] {
      started.fetch_add(1);
      return 0;
    });
  }
  EXPECT_THROW(run_parallel(tasks, 1), std::runtime_error);
  EXPECT_EQ(started.load(), 0);
}

TEST(RunParallel, FirstErrorWinsWhenAllThrow) {
  std::vector<std::function<int()>> tasks;
  for (int i = 0; i < 8; ++i) {
    tasks.push_back([i]() -> int {
      throw std::runtime_error("fail " + std::to_string(i));
    });
  }
  // Whichever task completes (fails) first is reported; with one thread
  // that is task 0.
  EXPECT_THROW(
      {
        try {
          run_parallel(tasks, 1);
        } catch (const std::runtime_error& e) {
          EXPECT_STREQ(e.what(), "fail 0");
          throw;
        }
      },
      std::runtime_error);
}

TEST(ReplicateStats, SummaryOfKnownSamples) {
  const auto s = summarize_samples({2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0});
  EXPECT_EQ(s.n, 8);
  EXPECT_DOUBLE_EQ(s.mean, 5.0);
  EXPECT_DOUBLE_EQ(s.min, 2.0);
  EXPECT_DOUBLE_EQ(s.max, 9.0);
  EXPECT_NEAR(s.stddev, 2.1380899, 1e-6);  // sample stddev
  EXPECT_GT(s.ci95(), 0.0);
}

TEST(ReplicateStats, EmptyAndSingleton) {
  EXPECT_EQ(summarize_samples({}).n, 0);
  const auto s = summarize_samples({3.0});
  EXPECT_EQ(s.n, 1);
  EXPECT_DOUBLE_EQ(s.mean, 3.0);
  EXPECT_DOUBLE_EQ(s.stddev, 0.0);
  EXPECT_DOUBLE_EQ(s.ci95(), 0.0);
}

TEST(Replicate, RunsSeedsAndSummarizes) {
  const auto cfg = ScenarioBuilder{}
                       .video(2, 0)
                       .policy(IntervalPolicy::Fixed500)
                       .duration_s(30.0)
                       .build();
  const auto s = replicate_saved(cfg, 3, /*base_seed=*/50);
  EXPECT_EQ(s.n, 3);
  EXPECT_GT(s.mean, 50.0);
  EXPECT_LT(s.mean, 90.0);
  EXPECT_LE(s.min, s.mean);
  EXPECT_GE(s.max, s.mean);
}

TEST(Replicate, DeterministicGivenBaseSeed) {
  const auto cfg = ScenarioBuilder{}
                       .video(1, 0)
                       .policy(IntervalPolicy::Fixed500)
                       .duration_s(20.0)
                       .build();
  const auto a = replicate_saved(cfg, 2, 7);
  const auto b = replicate_saved(cfg, 2, 7);
  EXPECT_DOUBLE_EQ(a.mean, b.mean);
  EXPECT_DOUBLE_EQ(a.stddev, b.stddev);
}

TEST(Replicate, CustomMetric) {
  const auto cfg = ScenarioBuilder{}
                       .video(1, 0)
                       .policy(IntervalPolicy::Fixed500)
                       .duration_s(20.0)
                       .build();
  const auto s = replicate(
      cfg, 2,
      [](const ScenarioResult& r) {
        return static_cast<double>(r.proxy_stats.schedules_sent);
      },
      7);
  // 20 s at 500 ms intervals starting at 0.5 s -> 40 schedules.
  EXPECT_NEAR(s.mean, 40.0, 1.0);
}

}  // namespace
}  // namespace pp::exp
