#include "client/power_daemon.hpp"

#include <algorithm>
#include <utility>

#include "check/check.hpp"
#include "obs/observer.hpp"

namespace pp::client {

PowerDaemon::PowerDaemon(sim::Simulator& sim, net::Ipv4Addr self,
                         const DaemonConfig& cfg, WnicFn wnic)
    : sim_{sim},
      self_{self},
      cfg_{cfg},
      wnic_{std::move(wnic)},
      cur_grace_{cfg.schedule_grace} {}

PowerDaemon::~PowerDaemon() {
  wake_timer_.cancel();
  grace_timer_.cancel();
  slot_timer_.cancel();
  resleep_timer_.cancel();
}

void PowerDaemon::set_wnic(bool awake) {
  if (awake_ == awake) return;
  awake_ = awake;
  if (wnic_) wnic_(awake);
}

void PowerDaemon::start() {
  // Restart-safe: a rejoining client's daemon must not carry schedule
  // state from before its absence (the anchor is stale, the entries are
  // for an old membership set).
  reset();
  set_wnic(true);
}

void PowerDaemon::stop() {
  reset();
  set_wnic(false);
}

void PowerDaemon::reset() {
  wake_timer_.cancel();
  grace_timer_.cancel();
  slot_timer_.cancel();
  resleep_timer_.cancel();
  state_ = State::AwaitingSchedule;
  cur_.reset();
  pending_.reset();
  my_entries_.clear();
  entry_idx_ = 0;
  planned_wake_ = sim::Time{};
  planned_next_ = State::AwaitingSchedule;
  planned_entry_ = 0;
  waiting_first_ = false;
  hold_until_ = sim::Time{};
  miss_active_ = false;
  consecutive_misses_ = 0;
  cur_grace_ = cfg_.schedule_grace;
  blind_coasts_ = 0;
}

void PowerDaemon::set_obs(obs::Observer* ob, std::uint32_t subject) {
  if (ob)
    obs_ = std::make_unique<Obs>(
        Obs{ob, subject, ob->metrics.histogram("client.outage_us")});
}

void PowerDaemon::publish(obs::MetricsRegistry& m) const {
  m.counter("client.schedules_missed")->inc(stats_.schedules_missed);
  m.counter("client.resyncs")->inc(stats_.resyncs);
}

void PowerDaemon::settle_first_wait() {
  if (!waiting_first_) return;
  waiting_first_ = false;
  stats_.early_wait += sim_.now() - wake_started_;
}

void PowerDaemon::note_resync() {
  if (consecutive_misses_ == 0) return;
  ++stats_.resyncs;
  if (obs_) {
    obs_->hist_outage_us->observe(static_cast<std::uint64_t>(
        (sim_.now() - first_miss_at_).count_us()));
    obs_->ob->timeline.record(sim_.now(), obs::EventKind::Resync,
                              obs_->subject, consecutive_misses_);
  }
  consecutive_misses_ = 0;
  cur_grace_ = cfg_.schedule_grace;
}

void PowerDaemon::on_schedule(
    std::shared_ptr<const proxy::ScheduleMessage> msg) {
  // k-repeat hardening copies carry the original's seq_no: a schedule we
  // already hold (applied or deferred) is a duplicate and must not disturb
  // the state machine.
  if ((cur_ && msg->seq_no <= cur_->seq_no) ||
      (pending_ && msg->seq_no <= pending_->seq_no)) {
    ++stats_.repeats_deduped;
    return;
  }
  ++stats_.schedules_received;
  grace_timer_.cancel();
  if (miss_active_) {
    miss_active_ = false;
    stats_.missed_wait += sim_.now() - miss_start_;
  }
  note_resync();
  if (state_ == State::AwaitingSchedule) settle_first_wait();

  // A repeated copy anchors delay compensation on where the original would
  // have arrived, not on its own (lagged) arrival.
  const sim::Time arrival = sim_.now() - msg->repeat_offset;
  if (state_ == State::Receiving) {
    // A burst is still in progress.  Rule (1) of Section 3.2.2: defer the
    // new schedule until the marked packet — unless one is already
    // deferred, which means the mark was dropped; then this second
    // schedule forcibly ends the burst.
    if (pending_) {
      apply_schedule(std::move(msg), arrival);
    } else {
      pending_ = std::move(msg);
      pending_arrival_ = arrival;
    }
    return;
  }
  apply_schedule(std::move(msg), arrival);
}

void PowerDaemon::apply_schedule(
    std::shared_ptr<const proxy::ScheduleMessage> msg, sim::Time arrival) {
  pending_.reset();
  slot_timer_.cancel();
  blind_coasts_ = 0;  // anchored on a real broadcast again
  cur_ = std::move(msg);
  anchor_ = arrival;
  my_entries_.clear();
  for (const auto& e : cur_->entries)
    if (e.client == self_) my_entries_.push_back(e);
  std::stable_sort(my_entries_.begin(), my_entries_.end(),
                   [](const auto& a, const auto& b) {
                     return a.rp_offset < b.rp_offset;
                   });
  entry_idx_ = 0;
  plan_next_step();
}

void PowerDaemon::plan_next_step() {
  // plan_next_step requires an applied schedule
  PP_CHECK(cur_ != nullptr, "client.power_daemon.plan");
  if (entry_idx_ < my_entries_.size()) {
    const auto& e = my_entries_[entry_idx_];
    const sim::Time t =
        cfg_.comp.wake_time(anchor_, cur_->srp_time, e.rp_offset);
    sleep_until(t, State::AwaitingBurst, entry_idx_);
    return;
  }
  // All bursts for this interval are done.
  if (cur_->reuse_next && cfg_.honor_reuse && !my_entries_.empty()) {
    // Future-work extension / static schedules: the same layout repeats, so
    // skip the next schedule broadcast and go straight to our next RP.
    anchor_ += cur_->interval;
    entry_idx_ = 0;
    plan_next_step();
    return;
  }
  const sim::Time t =
      cfg_.comp.wake_time(anchor_, cur_->srp_time, cur_->interval);
  sleep_until(t, State::AwaitingSchedule, 0);
}

void PowerDaemon::sleep_until(sim::Time t, State next, std::size_t entry_idx) {
  wake_timer_.cancel();
  const sim::Time now = sim_.now();
  if (t < now) t = now;
  planned_wake_ = t;
  planned_next_ = next;
  planned_entry_ = entry_idx;
  if (now < hold_until_ && hold_until_ < t) {
    // Activity hold: stay awake for imminent responses, then re-evaluate.
    state_ = next;
    wake_timer_ = sim_.at(hold_until_, [this, t, next, entry_idx] {
      if (state_ == next) sleep_until(t, next, entry_idx);
    });
    return;
  }
  if (t - now > cfg_.min_sleep && now >= hold_until_) {
    set_wnic(false);
    state_ = State::Sleeping;
    ++stats_.sleeps;
  }
  wake_timer_ =
      sim_.at(t, [this, next, entry_idx] { begin_wait(next, entry_idx); });
}

void PowerDaemon::begin_wait(State next, std::size_t entry_idx) {
  grace_timer_.cancel();
  slot_timer_.cancel();
  set_wnic(true);
  state_ = next;
  waiting_first_ = true;
  wake_started_ = sim_.now();

  if (next == State::AwaitingSchedule) {
    // We woke `early` before the expected arrival; the grace window runs
    // from that expected arrival.
    const sim::Time expected = sim_.now() + cfg_.comp.early;
    grace_timer_ = sim_.at(expected + cur_grace_,
                           [this] { on_schedule_grace_expired(); });
    return;
  }
  if (next == State::AwaitingBurst && cfg_.sleep_at_slot_end &&
      entry_idx < my_entries_.size()) {
    const auto& e = my_entries_[entry_idx];
    const sim::Time slot_end = anchor_ + e.rp_offset + e.duration;
    // A late wake (sleep_until clamps the wake to `now`) can land past the
    // slot's end; fire the slot-end handler immediately rather than
    // scheduling into the past.
    sim::Time fire = slot_end + cfg_.slot_end_grace;
    if (fire < sim_.now()) fire = sim_.now();
    slot_timer_ = sim_.at(fire, [this] { on_slot_end(); });
  }
}

void PowerDaemon::on_data(std::uint32_t payload, bool marked) {
  // Pure control segments (handshake ACKs, FINs) are not burst data; they
  // flow through the proxy ungated and must not disturb the burst state
  // machine.
  if (payload == 0 && !marked) return;
  ++stats_.data_packets;
  settle_first_wait();
  if (state_ == State::AwaitingBurst || state_ == State::AwaitingSchedule) {
    // Burst began — possibly before its schedule arrived (rule (2) of
    // Section 3.2.2: accept data that comes before a schedule).
    state_ = State::Receiving;
  }
  if (marked) end_burst(/*via_mark=*/true);
}

void PowerDaemon::end_burst(bool via_mark) {
  if (via_mark) {
    ++stats_.bursts_completed;
  } else {
    ++stats_.slot_end_sleeps;
  }
  slot_timer_.cancel();
  settle_first_wait();

  if (pending_) {
    auto msg = std::move(pending_);
    apply_schedule(std::move(msg), pending_arrival_);
    return;
  }
  if (!cur_) {
    // Mark arrived before we ever saw a schedule: stay awake for one.
    state_ = State::AwaitingSchedule;
    return;
  }
  if (miss_active_) {
    // We missed the schedule that announced this burst but caught the data
    // anyway.  Sleep until the *next* schedule, estimating its SRP one
    // interval past the one we missed (Section 4.3, worst-case discussion).
    if (blind_coasts_ >= cfg_.max_blind_coasts) {
      // The streak of estimate-only re-anchors is long enough that the
      // anchor itself is suspect — keep the outage open and stay awake
      // until a real broadcast re-anchors us.
      ++stats_.coast_breaks;
      state_ = State::AwaitingSchedule;
      return;
    }
    ++blind_coasts_;
    miss_active_ = false;
    stats_.missed_wait += sim_.now() - miss_start_;
    note_resync();
    anchor_ += cur_->interval;
    my_entries_.clear();
    entry_idx_ = 0;
    plan_next_step();
    return;
  }
  ++entry_idx_;
  plan_next_step();
}

void PowerDaemon::on_schedule_grace_expired() {
  if (state_ != State::AwaitingSchedule) return;
  ++stats_.schedules_missed;
  ++consecutive_misses_;
  if (consecutive_misses_ == 1) {
    ++stats_.first_misses;
    first_miss_at_ = sim_.now();
  } else {
    ++stats_.repeat_misses;
  }
  if (obs_)
    obs_->ob->timeline.record(sim_.now(), obs::EventKind::ScheduleMissed,
                              obs_->subject);
  // The early portion of the wait was ordinary early-transition waste; the
  // rest accrues as missed-schedule waste until a schedule shows up.
  if (waiting_first_) {
    waiting_first_ = false;
    stats_.early_wait += cfg_.comp.early;
  }
  if (!miss_active_) {
    miss_active_ = true;
    miss_start_ = sim_.now();
  }
  if (!cfg_.escalation.enabled || !cur_) {
    // Paper behavior (Section 4.3, worst-case client): remain awake; the
    // next schedule (or our burst's marked packet, if the data still
    // flows) resynchronizes us.
    return;
  }
  // Escalation: estimate where the SRP we just gave up on was expected
  // (this timer fired `cur_grace_` past it), widen the grace window for
  // the next attempt, then decide whether to wait out the interval awake
  // or sleep through to the next SRP.
  const sim::Time expected = sim_.now() - cur_grace_;
  const sim::Time next_expected = expected + cur_->interval;
  const sim::Duration widened =
      sim::Time::seconds(cur_grace_.to_seconds() * cfg_.escalation.backoff);
  cur_grace_ = std::min(widened, cfg_.escalation.max_grace);
  if (consecutive_misses_ <=
      static_cast<std::uint64_t>(cfg_.escalation.awake_misses)) {
    // Early in the outage: stay awake (our burst may still arrive) and
    // re-arm the grace timer on the next expected SRP.
    grace_timer_ = sim_.at(next_expected + cur_grace_,
                           [this] { on_schedule_grace_expired(); });
    return;
  }
  // Deep outage: burning a whole interval awake buys nothing — settle the
  // missed-wait accrual and sleep until just before the next expected SRP.
  ++stats_.escalated_sleeps;
  miss_active_ = false;
  stats_.missed_wait += sim_.now() - miss_start_;
  sleep_until(next_expected - cfg_.comp.early, State::AwaitingSchedule, 0);
}

void PowerDaemon::on_slot_end() {
  if (state_ != State::AwaitingBurst && state_ != State::Receiving) return;
  end_burst(/*via_mark=*/false);
}

void PowerDaemon::force_awake() {
  hold_until_ = sim_.now() + cfg_.activity_hold;
  // When the hold expires, resume the planned sleep if nothing changed.
  resleep_timer_.cancel();
  resleep_timer_ = sim_.at(hold_until_, [this] { maybe_resleep(); });
  if (awake_ && state_ != State::Sleeping) return;
  ++stats_.forced_wakes;
  set_wnic(true);
  // Keep the existing wake timer: the planned schedule/burst wake target is
  // still correct, we are merely awake early waiting for a response.
  waiting_first_ = false;
  if (state_ == State::Sleeping) state_ = State::AwaitingSchedule;
}

void PowerDaemon::extend_hold(sim::Time base) {
  if (base < sim_.now()) base = sim_.now();
  const sim::Time until = base + cfg_.activity_hold;
  if (until <= hold_until_) return;
  hold_until_ = until;
  resleep_timer_.cancel();
  resleep_timer_ = sim_.at(hold_until_, [this] { maybe_resleep(); });
}

void PowerDaemon::maybe_resleep() {
  if (sim_.now() < hold_until_) return;  // a later hold supersedes this one
  if (!awake_ || state_ == State::Receiving) return;
  if (!wake_timer_.pending()) return;  // no planned wake; stay up
  if (planned_wake_ <= sim_.now()) return;
  sleep_until(planned_wake_, planned_next_, planned_entry_);
}

}  // namespace pp::client
