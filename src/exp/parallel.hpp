// Parallel experiment fan-out over a shared next-task counter.
//
// Each scenario runs in its own Simulator instance with no shared mutable
// state, so whole configurations are embarrassingly parallel.  Workers
// share one atomic next-index counter: whichever worker frees up first
// claims the next task, so a long task never leaves idle workers queued
// behind it.  Tasks are coarse (whole simulations or whole cells), so one
// fetch_add per task costs nothing next to the work.  The calling thread
// is one of the workers; a width-1 call spawns no thread at all.  Results
// land at their original indices, so output is deterministic regardless
// of thread timing.
//
// Thread-count resolution (resolve_threads):
//   1. an explicit `threads` argument wins (tests pin exact widths);
//   2. else the PP_THREADS environment variable, when a positive integer;
//   3. else 1 under tsan/asan builds (sanitized CI runners are 2-core
//      machines that a hardware_concurrency-wide pool oversubscribes);
//   4. else std::thread::hardware_concurrency().
//
// Exception safety: a task that throws must not let the exception escape
// the worker thread (that would std::terminate the process).  The first
// exception is captured; remaining queued tasks are skipped, in-flight
// tasks finish, all workers join, and the exception is rethrown in the
// caller.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
#define PP_EXP_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
#define PP_EXP_SANITIZED 1
#endif
#endif
#ifndef PP_EXP_SANITIZED
#define PP_EXP_SANITIZED 0
#endif

namespace pp::exp {

inline constexpr bool kSanitizedBuild = PP_EXP_SANITIZED != 0;

// Number of workers a run_parallel call will actually use (see the
// resolution order in the header comment).  Exposed so callers and tests
// can predict pool width.
inline unsigned resolve_threads(unsigned requested, std::size_t n_tasks) {
  unsigned t = requested;
  if (t == 0) {
    if (const char* env = std::getenv("PP_THREADS")) {
      const long v = std::strtol(env, nullptr, 10);
      if (v > 0) t = static_cast<unsigned>(v);
    }
  }
  if (t == 0) {
    t = kSanitizedBuild ? 1u : std::max(1u, std::thread::hardware_concurrency());
  }
  return std::min<unsigned>(t, static_cast<unsigned>(n_tasks ? n_tasks : 1));
}

// Run tasks[i]() for every i; returns results in order.  `on_done(done,
// total)` — when provided — is invoked after each task completes, under an
// internal mutex (callbacks are serialized and may aggregate freely).  If
// any task throws, the first exception (by completion order) is rethrown
// here after all workers have joined.
template <typename Result>
std::vector<Result> run_parallel(
    const std::vector<std::function<Result()>>& tasks, unsigned threads = 0,
    const std::function<void(std::size_t, std::size_t)>& on_done = {}) {
  threads = resolve_threads(threads, tasks.size());
  std::vector<Result> results(tasks.size());

  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  std::exception_ptr first_error;
  std::size_t done = 0;
  std::mutex mu;  // guards first_error, done and on_done
  const auto work = [&] {
    while (!failed.load(std::memory_order_relaxed)) {
      const std::size_t i = next.fetch_add(1);
      if (i >= tasks.size()) return;
      try {
        results[i] = tasks[i]();
        if (on_done) {
          const std::lock_guard<std::mutex> lock{mu};
          on_done(++done, tasks.size());
        }
      } catch (...) {
        const std::lock_guard<std::mutex> lock{mu};
        if (!first_error) first_error = std::current_exception();
        failed.store(true, std::memory_order_relaxed);
      }
    }
  };
  {
    std::vector<std::jthread> helpers;
    helpers.reserve(threads - 1);
    for (unsigned t = 1; t < threads; ++t) helpers.emplace_back(work);
    work();
  }  // helpers join here
  if (first_error) std::rethrow_exception(first_error);
  return results;
}

}  // namespace pp::exp
