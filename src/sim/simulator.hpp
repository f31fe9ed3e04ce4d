// The discrete-event simulator: a clock plus the pending-event set.
//
// Single-threaded and deterministic.  Entities hold a Simulator& and
// schedule callbacks; the driver calls run_until()/run().
#pragma once

#include <cstdint>
#include <utility>

#include "check/check.hpp"
#include "sim/event_queue.hpp"
#include "sim/rng.hpp"
#include "sim/time.hpp"

namespace pp::sim {

class Simulator {
 public:
  explicit Simulator(std::uint64_t seed = 1) : rng_{seed} {}

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  Time now() const { return now_; }
  Rng& rng() { return rng_; }

  // Schedule fn at an absolute time (must be >= now()).  The callable is
  // forwarded straight into the event slab — no std::function, no heap
  // allocation for captures within EventCallback::kInlineCapacity.
  template <typename F>
  EventHandle at(Time when, F&& fn) {
    PP_CHECK_AT(when >= now_, "sim.simulator.schedule_into_past", now_);
    return queue_.push(when, std::forward<F>(fn));
  }
  // Schedule fn after a delay (must be >= 0).
  template <typename F>
  EventHandle after(Duration delay, F&& fn) {
    return at(now_ + delay, std::forward<F>(fn));
  }

  // Run until the event queue drains or stop() is called.
  void run();
  // Run all events with time <= until, then set the clock to `until`.
  void run_until(Time until);
  // Abort the run loop after the current event returns.
  void stop() { stopped_ = true; }

  std::uint64_t events_fired() const { return queue_.stats().fired; }
  // Scheduling behaviour of the event engine (sim.events.* when published
  // through obs).
  const EventQueue::Stats& queue_stats() const { return queue_.stats(); }
  std::size_t queue_slab_slots() const { return queue_.slab_slots(); }

 private:
  Time now_ = Time::zero();
  EventQueue queue_;
  Rng rng_;
  bool stopped_ = false;
};

}  // namespace pp::sim
