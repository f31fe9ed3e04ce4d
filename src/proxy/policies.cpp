#include "proxy/policies.hpp"

#include <algorithm>

#include "obs/metrics.hpp"

namespace pp::proxy {

namespace {

// Stream tag folded into the run seed so policy draws are independent of
// the simulator's shared stream and of the other named streams (churn,
// channel).  Changing this constant changes every probabilistic-policy run.
constexpr std::uint64_t kPolicyStreamTag = 0x5C4ED001'BA5EBA11ULL;

// FixedInterval-style layout over the served subset: each client gets its
// full drain cost (per `cost_of`, so measured-goodput widening composes),
// shrunk proportionally to queue depth when the subset overcommits the
// interval (Section 3.2.1's rule, applied post-admission).
template <typename CostFn>
std::vector<std::pair<net::Ipv4Addr, sim::Duration>> fit_proportional(
    const std::vector<const ClientDemand*>& served, sim::Duration available,
    CostFn cost_of) {
  std::vector<std::pair<net::Ipv4Addr, sim::Duration>> slots;
  std::vector<std::uint64_t> bytes;
  slots.reserve(served.size());
  bytes.reserve(served.size());
  sim::Duration total = sim::Time::zero();
  std::uint64_t total_bytes = 0;
  for (const ClientDemand* d : served) {
    const sim::Duration cost = cost_of(*d);
    slots.emplace_back(d->ip, cost);
    bytes.push_back(d->total());
    total += cost;
    total_bytes += d->total();
  }
  if (total > available && total_bytes > 0) {
    for (std::size_t i = 0; i < slots.size(); ++i) {
      const double share = static_cast<double>(bytes[i]) /
                           static_cast<double>(total_bytes);
      slots[i].second = sim::Time::ns(static_cast<std::int64_t>(
          share * static_cast<double>(available.count_ns())));
    }
  }
  return slots;
}

}  // namespace

sim::Rng policy_stream(std::uint64_t run_seed) {
  return sim::Rng{run_seed ^ kPolicyStreamTag};
}

// -- LongestQueueFirstScheduler ----------------------------------------------------

void LongestQueueFirstScheduler::publish(obs::MetricsRegistry& m) const {
  m.counter("sched.policy.lqf.starved")->inc(starved_);
}

BuiltSchedule LongestQueueFirstScheduler::build(
    const std::vector<ClientDemand>& demands, const BandwidthEstimator& est) {
  const sim::Duration available = interval_ - sp_.lead;
  // Deepest queue first; stable sort keeps SRP (registration) order on ties
  // so the layout stays deterministic.
  std::vector<const ClientDemand*> active;
  active.reserve(demands.size());
  for (const ClientDemand& d : demands) {
    if (d.total() > 0) active.push_back(&d);
  }
  std::stable_sort(active.begin(), active.end(),
                   [](const ClientDemand* a, const ClientDemand* b) {
                     return a->total() > b->total();
                   });

  std::vector<std::pair<net::Ipv4Addr, sim::Duration>> slots;
  slots.reserve(active.size());
  sim::Duration used = sim::Time::zero();
  for (const ClientDemand* d : active) {
    const sim::Duration remaining = available - used;
    // A slot shorter than the burst guard carries no data: starve instead
    // of emitting a useless (or zero-length) entry.
    if (remaining <= sp_.burst_guard) {
      ++starved_;
      continue;
    }
    sim::Duration cost = widened_cost(*d, est, sp_);
    if (cost > remaining) cost = remaining;  // partial tail slot
    slots.emplace_back(d->ip, cost);
    used += cost;
  }
  return BuiltSchedule{interval_, false, lay_out(slots, sp_.lead)};
}

// -- ChannelAwareOpportunisticScheduler --------------------------------------------

void ChannelAwareOpportunisticScheduler::publish(
    obs::MetricsRegistry& m) const {
  m.counter("sched.policy.opp.deferrals")->inc(deferrals_);
  m.counter("sched.policy.opp.forced")->inc(forced_);
}

BuiltSchedule ChannelAwareOpportunisticScheduler::build(
    const std::vector<ClientDemand>& demands, const BandwidthEstimator& est) {
  const sim::Duration available = interval_ - sp_.lead;
  std::vector<const ClientDemand*> served;
  served.reserve(demands.size());
  for (const ClientDemand& d : demands) {
    if (d.total() == 0) {
      // Queue drained: the skip streak (if any) is over.
      deferred_.erase(d.ip.raw());
      continue;
    }
    int& skips = deferred_[d.ip.raw()];
    const bool bad = d.channel.bad();
    // Defer only while the oldest datagram can still make its deadline
    // after sitting out one more interval.
    const bool can_wait = d.deadline_slack > interval_;
    if (bad && can_wait && skips < max_deferrals_) {
      ++skips;
      ++deferrals_;
      continue;
    }
    if (bad) ++forced_;  // bad channel, but late or skip-capped: serve anyway
    skips = 0;
    served.push_back(&d);
  }
  // Lay out the admitted set deepest-queue-first at full drain cost (the
  // LQF rule): under overcommit the airtime reclaimed from deferred
  // bad-channel clients must reach the deepest good-state queues whole,
  // not be smeared proportionally across every admitted slot.
  std::stable_sort(served.begin(), served.end(),
                   [](const ClientDemand* a, const ClientDemand* b) {
                     return a->total() > b->total();
                   });
  std::vector<std::pair<net::Ipv4Addr, sim::Duration>> slots;
  slots.reserve(served.size());
  sim::Duration used = sim::Time::zero();
  for (const ClientDemand* d : served) {
    const sim::Duration remaining = available - used;
    if (remaining <= sp_.burst_guard) break;  // tail starved this interval
    sim::Duration cost = widened_cost(*d, est, sp_);
    if (cost > remaining) cost = remaining;
    slots.emplace_back(d->ip, cost);
    used += cost;
  }
  return BuiltSchedule{interval_, false, lay_out(slots, sp_.lead)};
}

// -- BufferAwareProbabilisticScheduler ---------------------------------------------

BufferAwareProbabilisticScheduler::BufferAwareProbabilisticScheduler(
    sim::Duration interval, std::uint64_t run_seed,
    std::uint64_t threshold_bytes, SlotParams sp)
    : interval_{interval},
      threshold_bytes_{threshold_bytes},
      sp_{sp},
      rng_{policy_stream(run_seed)} {}

void BufferAwareProbabilisticScheduler::publish(
    obs::MetricsRegistry& m) const {
  m.counter("sched.policy.prob.skips")->inc(skips_);
  m.counter("sched.policy.prob.forced")->inc(forced_);
}

BuiltSchedule BufferAwareProbabilisticScheduler::build(
    const std::vector<ClientDemand>& demands, const BandwidthEstimator& est) {
  const sim::Duration available = interval_ - sp_.lead;
  std::vector<const ClientDemand*> served;
  served.reserve(demands.size());
  for (const ClientDemand& d : demands) {
    if (d.total() == 0) continue;
    const double q = static_cast<double>(d.total());
    const double p = q / (q + static_cast<double>(threshold_bytes_));
    // One admission draw per backlogged client per SRP, always consumed so
    // the stream position is a pure function of the demand snapshot.
    const bool admit = rng_.chance(p);
    const bool urgent = d.deadline_slack <= interval_;
    if (!admit && !urgent) {
      ++skips_;
      continue;
    }
    if (!admit) ++forced_;  // lost the draw but the deadline overrides it
    served.push_back(&d);
  }
  const auto slots =
      fit_proportional(served, available, [&](const ClientDemand& d) {
        return widened_cost(d, est, sp_);
      });
  return BuiltSchedule{interval_, false, lay_out(slots, sp_.lead)};
}

}  // namespace pp::proxy
