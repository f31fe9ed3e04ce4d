// Model/fuzz tests for the slab-pooled EventQueue: randomized
// schedule/cancel/pop/reschedule sequences checked against a reference
// std::multimap ordered by (time, insertion-seq) — the contract the
// engine's determinism rests on — plus handle-generation safety (a stale
// handle must never observe or cancel a recycled slot).
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/rng.hpp"
#include "sim/time.hpp"

namespace pp::sim {
namespace {

// Reference model: pop order is strictly (when, seq) ascending.
using ModelKey = std::pair<std::int64_t, std::uint64_t>;

struct Fuzzer {
  explicit Fuzzer(std::uint64_t seed) : rng{seed} {}

  void push_one() {
    const std::int64_t base = relative ? now : 0;
    push_at(base + static_cast<std::int64_t>(rng.next_u64() % span));
  }

  void push_at(std::int64_t when) {
    const int id = next_id++;
    handles.push_back({q.push(Time::ns(when), [this, id] { on_fire(id); }),
                       id});
    model.emplace(ModelKey{when, seq}, id);
    ++seq;
  }

  // A fired callback may schedule more events at `now`, appending to the
  // same-time run that is draining at the root.
  void on_fire(int id) {
    fired.push_back(id);
    while (push_from_callbacks && rng.next_u64() % 3 == 0) push_at(now);
  }

  // Cancel a uniformly chosen handle — live, already-fired, or
  // already-cancelled; the queue must tolerate all three.
  void cancel_one() {
    if (handles.empty()) return;
    auto& [h, id] = handles[rng.next_u64() % handles.size()];
    const bool was_live = model_contains(id);
    EXPECT_EQ(h.pending(), was_live);
    h.cancel();
    EXPECT_FALSE(h.pending());
    if (was_live) model_erase(id);
  }

  void pop_one() {
    if (model.empty()) {
      EXPECT_TRUE(q.empty());
      return;
    }
    const auto expect = *model.begin();
    model.erase(model.begin());
    auto [when, fn] = q.pop();
    EXPECT_EQ(when.count_ns(), expect.first.first);
    now = when.count_ns();
    const std::size_t before = fired.size();
    fn();
    ASSERT_EQ(fired.size(), before + 1);
    EXPECT_EQ(fired.back(), expect.second);
  }

  void check_invariants() {
    EXPECT_EQ(q.empty(), model.empty());
    EXPECT_EQ(q.size(), model.size());
    const Time expect_next =
        model.empty() ? Time::max() : Time::ns(model.begin()->first.first);
    EXPECT_EQ(q.next_time(), expect_next);
    // Lazy pruning never holds more than one stale node per cancellation.
    EXPECT_GE(q.size_bound(), q.size());
  }

  bool model_contains(int id) const {
    for (const auto& [k, v] : model)
      if (v == id) return true;
    return false;
  }
  void model_erase(int id) {
    for (auto it = model.begin(); it != model.end(); ++it) {
      if (it->second == id) {
        model.erase(it);
        return;
      }
    }
  }

  Rng rng;
  std::uint64_t span = 1000;        // push times drawn from [base, base+span)
  bool relative = false;            // base is `now` rather than 0
  bool push_from_callbacks = false;
  std::int64_t now = 0;             // time of the last pop
  EventQueue q;
  std::multimap<ModelKey, int> model;
  std::vector<std::pair<EventHandle, int>> handles;
  std::vector<int> fired;
  std::uint64_t seq = 0;
  int next_id = 0;
};

TEST(EventQueueModel, RandomizedOpsMatchReference) {
  for (std::uint64_t seed : {11u, 202u, 3033u, 40404u}) {
    Fuzzer f{seed};
    for (int step = 0; step < 4000; ++step) {
      const std::uint64_t op = f.rng.next_u64() % 10;
      if (op < 4) {
        f.push_one();
      } else if (op < 6) {
        f.cancel_one();
      } else if (op < 9) {
        f.pop_one();
      } else {
        // Reschedule: cancel one, then push a replacement.
        f.cancel_one();
        f.push_one();
      }
      f.check_invariants();
    }
    // Drain; the tail must still come out in model order.
    while (!f.q.empty()) f.pop_one();
    f.check_invariants();
  }
}

// Times drawn from a handful of values just past the clock, so pushes land
// back to back at one time and join runs.  Bursts model a schedule
// broadcast re-arming many timers at one instant; their head, middle and
// tail entries get cancelled, and fired callbacks push more events at
// `now`.
TEST(EventQueueModel, SameTimeRunsMatchReference) {
  for (std::uint64_t seed : {7u, 808u, 9009u, 60606u}) {
    Fuzzer f{seed};
    f.span = 4;
    f.relative = true;
    f.push_from_callbacks = true;
    for (int step = 0; step < 4000; ++step) {
      const std::uint64_t op = f.rng.next_u64() % 10;
      if (op < 2) {
        f.push_one();
      } else if (op < 4) {
        // Burst at one time; cancel its head, middle and tail each with
        // probability 1/2.
        const std::size_t k = 1 + f.rng.next_u64() % 16;
        const std::int64_t when =
            f.now + static_cast<std::int64_t>(f.rng.next_u64() % f.span);
        const std::size_t first = f.handles.size();
        for (std::size_t i = 0; i < k; ++i) f.push_at(when);
        for (std::size_t i : {first, first + k / 2, first + k - 1}) {
          auto& [h, id] = f.handles[i];
          if (f.rng.next_u64() % 2 == 0 || !h.pending()) continue;
          h.cancel();
          f.model_erase(id);
        }
      } else if (op < 5) {
        f.cancel_one();
      } else {
        f.pop_one();
      }
      f.check_invariants();
    }
    while (!f.model.empty()) f.pop_one();
    f.check_invariants();
    EXPECT_EQ(f.q.size_bound(), 0u);
  }
}

TEST(EventQueueModel, PopOrderIsTimeThenInsertionSeq) {
  EventQueue q;
  std::vector<int> order;
  q.push(Time::ms(5), [&] { order.push_back(50); });
  q.push(Time::ms(1), [&] { order.push_back(10); });
  q.push(Time::ms(5), [&] { order.push_back(51); });
  q.push(Time::ms(1), [&] { order.push_back(11); });
  q.push(Time::ms(3), [&] { order.push_back(30); });
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(order, (std::vector<int>{10, 11, 30, 50, 51}));
}

// A handle from a fired event must not touch whatever reuses its slot.
TEST(EventQueueModel, StaleHandleAfterFireCannotCancelReusedSlot) {
  EventQueue q;
  bool a_fired = false;
  bool b_fired = false;
  EventHandle ha = q.push(Time::ms(1), [&] { a_fired = true; });
  EXPECT_TRUE(ha.pending());
  q.pop().fn();
  EXPECT_TRUE(a_fired);
  EXPECT_FALSE(ha.pending());

  // The freed slot is reused eagerly, so B lands exactly where A lived.
  EventHandle hb = q.push(Time::ms(2), [&] { b_fired = true; });
  ha.cancel();  // stale: generation mismatch, must be a no-op
  EXPECT_FALSE(ha.pending());
  EXPECT_TRUE(hb.pending());
  ASSERT_FALSE(q.empty());
  q.pop().fn();
  EXPECT_TRUE(b_fired);
}

TEST(EventQueueModel, StaleHandleAfterCancelCannotCancelReusedSlot) {
  EventQueue q;
  bool b_fired = false;
  EventHandle ha = q.push(Time::ms(1), [] {});
  ha.cancel();
  EXPECT_TRUE(q.empty());

  EventHandle hb = q.push(Time::ms(2), [&] { b_fired = true; });
  ha.cancel();  // stale again; B must survive
  ha.cancel();  // and cancel stays idempotent
  EXPECT_TRUE(hb.pending());
  EXPECT_EQ(q.size(), 1u);
  q.pop().fn();
  EXPECT_TRUE(b_fired);
}

TEST(EventQueueModel, HandleCopiesObserveOneEvent) {
  EventQueue q;
  EventHandle h1 = q.push(Time::ms(1), [] {});
  EventHandle h2 = h1;
  EXPECT_TRUE(h2.pending());
  h1.cancel();
  EXPECT_FALSE(h2.pending());
  h2.cancel();  // no-op on the same (already released) slot
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueModel, HandleReportsNotPendingInsideOwnCallback) {
  EventQueue q;
  EventHandle h;
  bool pending_inside = true;
  h = q.push(Time::ms(1), [&] { pending_inside = h.pending(); });
  q.pop().fn();
  EXPECT_FALSE(pending_inside);
}

// Cancelling and rescheduling from inside a running callback must not
// corrupt the slab even when the running event's slot gets reused by the
// push that the callback itself performs.
TEST(EventQueueModel, CallbackMayPushIntoItsOwnReleasedSlot) {
  EventQueue q;
  int fired = 0;
  q.push(Time::ms(1), [&] {
    // Our slot was released before invocation; this push may land in it.
    q.push(Time::ms(2), [&] { ++fired; });
  });
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(fired, 1);
}

TEST(EventQueueModel, StalePruningIsBounded) {
  EventQueue q;
  std::vector<EventHandle> hs;
  hs.reserve(1000);
  for (int i = 0; i < 1000; ++i) {
    hs.push_back(q.push(Time::ms(i), [] {}));
  }
  for (auto& h : hs) h.cancel();
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.next_time(), Time::max());  // prunes every stale node
  EXPECT_EQ(q.size_bound(), 0u);
  EXPECT_EQ(q.stats().cancelled, 1000u);
  EXPECT_EQ(q.stats().stale_pruned, 1000u);
}

TEST(EventQueueModel, StatsCount) {
  EventQueue q;
  auto h = q.push(Time::ms(1), [] {});
  q.push(Time::ms(2), [] {});
  h.cancel();
  q.pop().fn();
  EXPECT_EQ(q.stats().scheduled, 2u);
  EXPECT_EQ(q.stats().cancelled, 1u);
  EXPECT_EQ(q.stats().fired, 1u);
}

}  // namespace
}  // namespace pp::sim
