// Burst-schedule construction policies (Section 3.2.1).
//
// At each SRP the proxy snapshots every client's packet-queue depth and
// asks a Scheduler to lay out the coming burst interval.  Four policies:
//
//  * FixedIntervalScheduler  — fixed interval (the paper's 100 ms / 500 ms);
//    each active client gets a slice proportional to its queue depth when
//    demand exceeds the interval, or exactly its drain cost otherwise.
//  * VariableIntervalScheduler — interval sized so every client drains its
//    queue (clamped to [min, max]).
//  * StaticScheduler — permanent equal slots for a fixed client set; the
//    schedule never changes, so it is broadcast with the reuse flag and
//    clients skip waking for subsequent schedule messages.
//  * SlottedStaticScheduler — the Figure 7 baseline: a fixed TCP slot (all
//    clients awake) followed by equal per-client UDP slots.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "channel/observer.hpp"
#include "obs/hooks.hpp"
#include "proxy/bandwidth.hpp"
#include "proxy/schedule.hpp"
#include "sim/time.hpp"

namespace pp::proxy {

// Snapshot of one client's buffered downlink data at an SRP.
struct ClientDemand {
  net::Ipv4Addr ip;
  std::uint64_t udp_bytes = 0;
  std::uint64_t tcp_bytes = 0;
  // Queued datagram count (UDP keeps its original framing, so its channel
  // cost depends on the packet count, not just bytes).
  std::uint64_t udp_packets = 0;
  // Per-client channel quality at the SRP (default view when no channel
  // observer is wired: unknown, treated as good).
  channel::ChannelView channel{};
  // Time left before the oldest queued datagram exceeds the proxy's delay
  // target; the full target when nothing is queued.  A zero slack means
  // "already late" — policies must not defer such a client.
  sim::Duration deadline_slack{};

  std::uint64_t total() const { return udp_bytes + tcp_bytes; }
};

struct BuiltSchedule {
  sim::Duration interval;
  bool reuse_next = false;
  std::vector<ScheduleEntry> entries;  // sorted by rp_offset
};

struct SlotParams {
  // Gap between the SRP and the first burst: covers the schedule frame's
  // own airtime plus client wake slack.
  sim::Duration lead = sim::Time::ms(4);
  // Idle guard appended to each burst to absorb access-point jitter.
  sim::Duration burst_guard = sim::Time::ms(1);
  std::uint32_t mtu = 1400;
  std::uint32_t tcp_ack_bytes = 40;  // uplink ack airtime charged to TCP
};

class Scheduler {
 public:
  virtual ~Scheduler() = default;
  virtual BuiltSchedule build(const std::vector<ClientDemand>& demands,
                              const BandwidthEstimator& est) = 0;
  // Write this policy's sched.policy.* counters (default: it has none).
  // The proxy calls this from its own publish().
  virtual void publish(obs::MetricsRegistry&) const {}
  // Size slots by the ChannelView's measured EWMA goodput when it is worse
  // than the calibrated nominal rate (see widened_cost).  Composes with
  // every demand-driven policy; the static schedules ignore per-client
  // costs, so it is rejected for them at the builder.
  void set_measured_goodput(bool on) { measured_goodput_ = on; }

 protected:
  // Drain cost for `d` including the burst guard, widened by the measured
  // goodput when enabled.  Widening only: a lucky EWMA above nominal must
  // not under-size the slot and cause an overrun the guard cannot absorb.
  sim::Duration widened_cost(const ClientDemand& d,
                             const BandwidthEstimator& est,
                             const SlotParams& sp) const;

  bool measured_goodput_ = false;
};

// -- Shared policy helpers ---------------------------------------------------------

// Channel time to drain one client's queue, TCP acks included.
sim::Duration demand_cost(const ClientDemand& d, const BandwidthEstimator& est,
                          const SlotParams& sp);

// Lay out entries back-to-back starting at `lead`, in the order given.
std::vector<ScheduleEntry> lay_out(
    const std::vector<std::pair<net::Ipv4Addr, sim::Duration>>& slots,
    sim::Duration lead);

// The slot non-overlap invariant (see src/check): true when two entries of
// one interval illegally share channel time.  TcpOnly pairs are exempt —
// the static TCP schedule deliberately gives all TCP clients one shared
// listening slot.  Used by the proxy's schedule_tick PP_CHECK and by the
// scheduler tests.
bool slots_conflict(const ScheduleEntry& a, const ScheduleEntry& b);

class FixedIntervalScheduler final : public Scheduler {
 public:
  explicit FixedIntervalScheduler(sim::Duration interval, SlotParams sp = {})
      : interval_{interval}, sp_{sp} {}
  BuiltSchedule build(const std::vector<ClientDemand>& demands,
                      const BandwidthEstimator& est) override;

 private:
  sim::Duration interval_;
  SlotParams sp_;
};

class VariableIntervalScheduler final : public Scheduler {
 public:
  VariableIntervalScheduler(sim::Duration min_interval = sim::Time::ms(100),
                            sim::Duration max_interval = sim::Time::ms(500),
                            SlotParams sp = {})
      : min_{min_interval}, max_{max_interval}, sp_{sp} {}
  BuiltSchedule build(const std::vector<ClientDemand>& demands,
                      const BandwidthEstimator& est) override;

 private:
  sim::Duration min_;
  sim::Duration max_;
  SlotParams sp_;
};

class StaticScheduler final : public Scheduler {
 public:
  StaticScheduler(sim::Duration interval, std::vector<net::Ipv4Addr> clients,
                  SlotParams sp = {})
      : interval_{interval}, clients_{std::move(clients)}, sp_{sp} {}
  BuiltSchedule build(const std::vector<ClientDemand>& demands,
                      const BandwidthEstimator& est) override;

 private:
  sim::Duration interval_;
  std::vector<net::Ipv4Addr> clients_;
  SlotParams sp_;
};

class SlottedStaticScheduler final : public Scheduler {
 public:
  // `tcp_weight` in (0, 1): fraction of the interval reserved for the TCP
  // slot, during which every client is awake.
  SlottedStaticScheduler(sim::Duration interval, double tcp_weight,
                         std::vector<net::Ipv4Addr> udp_clients,
                         std::vector<net::Ipv4Addr> tcp_clients,
                         SlotParams sp = {});
  BuiltSchedule build(const std::vector<ClientDemand>& demands,
                      const BandwidthEstimator& est) override;

 private:
  sim::Duration interval_;
  double tcp_weight_;
  std::vector<net::Ipv4Addr> udp_clients_;
  std::vector<net::Ipv4Addr> tcp_clients_;
  SlotParams sp_;
};

}  // namespace pp::proxy
