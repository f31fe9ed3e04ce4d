// The scheduler policy zoo: queue- and channel-aware burst layouts behind
// the same Scheduler interface as the paper's dynamic policies.
//
// All three run a fixed burst interval (comparable to the paper's 500 ms
// FixedIntervalScheduler, which stays the untouched baseline) and differ in
// who gets channel time:
//
//  * LongestQueueFirstScheduler — classic max-queue priority: serve clients
//    in descending backlog order at full drain cost until the interval is
//    exhausted; the tail is starved until the next SRP.
//  * ChannelAwareOpportunisticScheduler — joint queue/channel scheduling in
//    the spirit of arXiv:1807.10128: clients whose channel sits in the
//    worst quality rung are deferred (no slot: they sleep the interval out
//    instead of burning airtime and energy on frames the fade would eat),
//    and the reclaimed airtime goes to good-state clients.  Deferral is
//    bounded by the client's deadline slack and a consecutive-skip cap, so
//    a long fade degrades to the baseline instead of starving the client.
//  * BufferAwareProbabilisticScheduler — randomized buffer-threshold
//    admission after arXiv:1509.02655: each backlogged client is served
//    with probability q/(q + q0), so deep queues are near-certain and
//    shallow queues probabilistically batch up across intervals.  Draws
//    come from a named deterministic stream derived from the run seed —
//    never the simulator's shared stream — so runs stay replayable.
#pragma once

#include <cstdint>
#include <map>

#include "proxy/scheduler.hpp"
#include "sim/rng.hpp"

namespace pp::proxy {

class LongestQueueFirstScheduler final : public Scheduler {
 public:
  explicit LongestQueueFirstScheduler(sim::Duration interval,
                                      SlotParams sp = {})
      : interval_{interval}, sp_{sp} {}
  BuiltSchedule build(const std::vector<ClientDemand>& demands,
                      const BandwidthEstimator& est) override;
  void publish(obs::MetricsRegistry& m) const override;
  // Backlogged clients left without a slot, summed over every SRP.
  std::uint64_t starved() const { return starved_; }

 private:
  sim::Duration interval_;
  SlotParams sp_;
  std::uint64_t starved_ = 0;
};

class ChannelAwareOpportunisticScheduler final : public Scheduler {
 public:
  // `max_deferrals`: consecutive SRPs a bad-channel client may be skipped
  // before it is served regardless (in addition to the deadline-slack
  // guard, which force-serves earlier when data would go late).
  // `use_measured_goodput`: convenience forward to the base class's
  // set_measured_goodput (widen slots by measured EWMA goodput when it is
  // worse than the rung-nominal rate).
  explicit ChannelAwareOpportunisticScheduler(
      sim::Duration interval, int max_deferrals = 3, SlotParams sp = {},
      bool use_measured_goodput = false)
      : interval_{interval}, max_deferrals_{max_deferrals}, sp_{sp} {
    set_measured_goodput(use_measured_goodput);
  }
  BuiltSchedule build(const std::vector<ClientDemand>& demands,
                      const BandwidthEstimator& est) override;
  void publish(obs::MetricsRegistry& m) const override;
  // Bad-channel clients deferred, and those served anyway (late or
  // skip-capped), summed over every SRP.
  std::uint64_t deferrals() const { return deferrals_; }
  std::uint64_t forced() const { return forced_; }

 private:
  sim::Duration interval_;
  int max_deferrals_;
  SlotParams sp_;
  // Consecutive deferrals per client (ordered map: layout must never
  // follow hash-bucket order).
  std::map<std::uint32_t, int> deferred_;
  std::uint64_t deferrals_ = 0;
  std::uint64_t forced_ = 0;
};

class BufferAwareProbabilisticScheduler final : public Scheduler {
 public:
  // `threshold_bytes` is q0 in the admission probability q/(q + q0).
  BufferAwareProbabilisticScheduler(sim::Duration interval,
                                    std::uint64_t run_seed,
                                    std::uint64_t threshold_bytes = 16 * 1024,
                                    SlotParams sp = {});
  BuiltSchedule build(const std::vector<ClientDemand>& demands,
                      const BandwidthEstimator& est) override;
  void publish(obs::MetricsRegistry& m) const override;
  // Clients that lost the admission draw and were skipped, and those
  // served anyway on deadline, summed over every SRP.
  std::uint64_t skips() const { return skips_; }
  std::uint64_t forced() const { return forced_; }

 private:
  sim::Duration interval_;
  std::uint64_t threshold_bytes_;
  SlotParams sp_;
  sim::Rng rng_;  // named stream: policy draws only, never sim.rng()
  std::uint64_t skips_ = 0;
  std::uint64_t forced_ = 0;
};

// The named policy RNG stream: an independent generator derived from the
// run seed and a fixed stream tag.  Exposed so tests can reproduce policy
// draws without constructing a scheduler.
sim::Rng policy_stream(std::uint64_t run_seed);

}  // namespace pp::proxy
