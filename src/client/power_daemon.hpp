// The client-side power daemon (Sections 3.1-3.3).
//
// A small state machine that decides when the WNIC sleeps and wakes:
//
//  * wake shortly before each expected schedule broadcast (adaptive delay
//    compensation, anchored on the previous schedule's observed arrival);
//  * on a schedule, sleep until the client's rendezvous point, wake for the
//    burst, and sleep again when the marked packet arrives;
//  * ignore a schedule that arrives while a burst is still in progress
//    until the marked packet (or a further schedule) arrives — and accept
//    burst data that arrives before its schedule (the out-of-order rules
//    of Section 3.2.2);
//  * if an expected schedule never arrives, stay in high-power mode until
//    the next one (Section 4.3, "Worst-case client");
//  * honor the schedule-reuse flag (the paper's future-work extension):
//    when set, skip waking for the next broadcast and go straight to the
//    next burst rendezvous point.
//
// The daemon is deliberately decoupled from the live network client: it is
// driven by on_schedule()/on_data() events plus simulator timers, so the
// identical policy code runs inside the live client *and* inside the
// trace-driven postmortem analyzer.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "client/delay_comp.hpp"
#include "net/packet.hpp"
#include "obs/hooks.hpp"
#include "proxy/schedule.hpp"
#include "sim/simulator.hpp"

namespace pp::client {

struct DaemonConfig {
  DelayCompensation comp{};
  // How long after the expected schedule arrival to wait before declaring
  // the schedule missed.
  sim::Duration schedule_grace = sim::Time::ms(30);
  // Fallback for slotted-static schedules whose slots may carry no data:
  // sleep when the slot ends even without a marked packet.
  bool sleep_at_slot_end = false;
  sim::Duration slot_end_grace = sim::Time::ms(5);
  // Gaps shorter than this are not worth the wake transition penalty.
  sim::Duration min_sleep = sim::Time::ms(4);
  // Honor ScheduleMessage::reuse_next (skip the next schedule wake).
  bool honor_reuse = true;
  // After app-initiated uplink activity (connection setup, requests), hold
  // the radio awake this long so immediate responses — TCP handshake
  // segments pass the proxy ungated — are not missed.  Data responses ride
  // scheduled bursts, so only a couple of wired round trips are needed.
  sim::Duration activity_hold = sim::Time::ms(50);
  // Missed-schedule escalation (graceful degradation under bursty loss).
  // Disabled by default, preserving the paper's worst-case behavior: stay
  // awake until the next SRP.  When enabled, each consecutive miss widens
  // the grace window by `backoff` (capped at max_grace), and after
  // `awake_misses` consecutive misses the daemon stops burning the whole
  // interval awake and instead sleeps between SRP wake attempts.
  struct MissEscalation {
    bool enabled = false;
    int awake_misses = 1;    // misses tolerated before sleeping through
    double backoff = 2.0;    // grace multiplier per consecutive miss
    sim::Duration max_grace = sim::Time::ms(240);
  };
  MissEscalation escalation{};
  // When a schedule is missed but its burst data arrives anyway, the daemon
  // re-anchors by estimate alone (`anchor_ += interval`) and sleeps — a
  // "blind coast".  A stale anchor (e.g. one poisoned by a queue-delayed
  // schedule released after an AP stall) can make every coast wake late
  // enough to sleep through the next broadcast *and* its k-repeat copies,
  // coasting desynchronized forever.  After this many consecutive coasts
  // without hearing a real broadcast, stay awake for one to re-anchor.
  int max_blind_coasts = 2;
};

struct DaemonStats {
  std::uint64_t schedules_received = 0;
  std::uint64_t schedules_missed = 0;
  std::uint64_t bursts_completed = 0;   // marked packet seen
  std::uint64_t slot_end_sleeps = 0;    // slot-end fallback fired
  std::uint64_t sleeps = 0;
  std::uint64_t data_packets = 0;
  std::uint64_t forced_wakes = 0;
  // Degradation bookkeeping: a "first miss" opens an outage, further
  // consecutive misses deepen it, and the next received schedule closes it
  // (a resync).  Deduped k-repeat copies never touch the outage state.
  std::uint64_t first_misses = 0;
  std::uint64_t repeat_misses = 0;
  std::uint64_t escalated_sleeps = 0;  // intervals slept through in outage
  std::uint64_t resyncs = 0;
  std::uint64_t repeats_deduped = 0;
  std::uint64_t coast_breaks = 0;  // blind-coast streaks cut short
  // Awake time spent waiting for the first packet after a wake (the "early
  // transition" waste of Figure 6) and awake time caused by missed
  // schedules (its "MissedSched" component).
  sim::Duration early_wait;
  sim::Duration missed_wait;
};

class PowerDaemon {
 public:
  using WnicFn = std::function<void(bool awake)>;

  // `cfg` is referenced, not copied, and must outlive the daemon: every
  // client of a testbed shares the testbed's one copy.
  PowerDaemon(sim::Simulator& sim, net::Ipv4Addr self, const DaemonConfig& cfg,
              WnicFn wnic);
  PowerDaemon(sim::Simulator&, net::Ipv4Addr, DaemonConfig&&, WnicFn) = delete;
  ~PowerDaemon();

  PowerDaemon(const PowerDaemon&) = delete;
  PowerDaemon& operator=(const PowerDaemon&) = delete;

  // Begin awake, waiting for the first schedule.  Safe to call again after
  // stop(): all schedule/miss state is reset first (a rejoining client
  // must not trust an anchor from before its absence).
  void start();
  // Power the radio down and drop all schedule state (client left the
  // cell).  Idempotent; start() brings the daemon back.
  void stop();

  // A schedule broadcast was received (WNIC necessarily awake).
  void on_schedule(std::shared_ptr<const proxy::ScheduleMessage> msg);
  // A packet addressed to this client was received.  The daemon only reads
  // the payload size and the end-of-burst mark, so callers that have
  // already moved the packet into the stack use the field form directly.
  void on_data(const net::Packet& pkt) { on_data(pkt.payload, pkt.marked); }
  void on_data(std::uint32_t payload, bool marked);
  // The application initiated uplink activity: wake and stay awake until
  // the next schedule resynchronizes us.
  void force_awake();
  // Push the activity hold out to `base` + activity_hold.  Called once the
  // uplink frame actually clears the busy channel, so the response window
  // is measured from when the request could first be answered.
  void extend_hold(sim::Time base);

  bool awake() const { return awake_; }
  const DaemonStats& stats() const { return stats_; }

  // Record missed-schedule and resync events keyed to `subject` (the
  // client's IP), and the outage-length histogram.
  void set_obs(obs::Hook hook, std::uint32_t subject);
  // Add this daemon's missed schedules and resyncs to the client.*
  // counters.
  void publish(obs::MetricsRegistry& m) const;

 private:
  enum class State : std::uint8_t {
    AwaitingSchedule,  // awake, expecting a schedule broadcast
    Sleeping,
    AwaitingBurst,  // awake at an RP, burst not yet started
    Receiving,      // burst in progress (no mark yet)
  };

  void apply_schedule(std::shared_ptr<const proxy::ScheduleMessage> msg,
                      sim::Time arrival);
  void plan_next_step();
  void sleep_until(sim::Time t, State next, std::size_t entry_idx);
  void begin_wait(State next, std::size_t entry_idx);
  void end_burst(bool via_mark);
  void on_schedule_grace_expired();
  void on_slot_end();
  void maybe_resleep();
  void settle_first_wait();
  void note_resync();
  void set_wnic(bool awake);
  void reset();

  sim::Simulator& sim_;
  net::Ipv4Addr self_;
  const DaemonConfig& cfg_;
  WnicFn wnic_;

  State state_ = State::AwaitingSchedule;
  bool awake_ = true;
  std::shared_ptr<const proxy::ScheduleMessage> cur_;
  sim::Time anchor_;  // arrival time anchoring cur_'s offsets
  std::vector<proxy::ScheduleEntry> my_entries_;
  std::size_t entry_idx_ = 0;
  std::shared_ptr<const proxy::ScheduleMessage> pending_;
  sim::Time pending_arrival_;

  sim::EventHandle wake_timer_;
  sim::EventHandle grace_timer_;
  sim::EventHandle slot_timer_;
  sim::EventHandle resleep_timer_;  // resume sleeping when a hold expires

  // Most recent sleep plan, so an activity hold can resume it.
  sim::Time planned_wake_;
  State planned_next_ = State::AwaitingSchedule;
  std::size_t planned_entry_ = 0;

  bool waiting_first_ = false;
  sim::Time wake_started_;
  sim::Time hold_until_;  // no sleeping before this (activity hold)
  bool miss_active_ = false;
  sim::Time miss_start_;

  // Outage state (escalation policy): consecutive misses since the last
  // received schedule, the current (possibly widened) grace window, and
  // when the outage opened.
  std::uint64_t consecutive_misses_ = 0;
  sim::Duration cur_grace_;
  sim::Time first_miss_at_;
  int blind_coasts_ = 0;  // consecutive estimate-only re-anchors

  // Observability handles, allocated by set_obs: a fleet's daemons run
  // without them and pay one null pointer.
  struct Obs {
    obs::Hook hook;
    std::uint32_t subject = 0;
    obs::Histogram* hist_outage_us = nullptr;
  };
  std::unique_ptr<Obs> obs_;

  DaemonStats stats_;
};

}  // namespace pp::client
