// WNIC power modelling.
//
// Power numbers are the paper's 2.4 GHz WaveLAN DSSS figures (Stemm et al.
// and Havinga): idle 1319 mW, receive 1425 mW, transmit 1675 mW, sleep
// 177 mW; a sleep->idle transition costs the equivalent of 2 ms of idle
// time (Krashinsky & Balakrishnan).
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "sim/time.hpp"

namespace pp::energy {

enum class WnicMode : std::uint8_t { Sleep = 0, Idle = 1, Receive = 2, Transmit = 3 };
inline constexpr std::size_t kNumModes = 4;

inline const char* to_string(WnicMode m) {
  switch (m) {
    case WnicMode::Sleep: return "sleep";
    case WnicMode::Idle: return "idle";
    case WnicMode::Receive: return "receive";
    case WnicMode::Transmit: return "transmit";
  }
  return "?";
}

struct WnicPowerModel {
  // Milliwatts (== mJ per second) per mode, indexed by WnicMode.
  std::array<double, kNumModes> milliwatts{177.0, 1319.0, 1425.0, 1675.0};
  // Energy penalty of a sleep->idle transition, expressed as idle time.
  sim::Duration wake_transition = sim::Time::ms(2);

  double mw(WnicMode m) const {
    return milliwatts[static_cast<std::size_t>(m)];
  }
  double wake_energy_mj() const {
    return mw(WnicMode::Idle) * wake_transition.to_seconds();
  }

  static WnicPowerModel wavelan() { return {}; }
};

// Flat column storage for a fleet of WNIC energy timelines.  One ledger
// holds every client of a testbed: the hot per-transition fields
// (last_change, mode) live in dense vectors indexed by row, so a 100k-client
// run touches contiguous memory instead of 100k heap-scattered accountants.
// All rows share one power model — a fleet is homogeneous by construction.
//
// Rows are handed out by add_row() and never reclaimed; the ledger is
// append-only for the lifetime of a run, so row indices stay stable and a
// reserve() up front makes registration allocation-free.
class EnergyLedger {
 public:
  explicit EnergyLedger(WnicPowerModel model = WnicPowerModel{})
      : model_{model} {}

  std::uint32_t add_row(sim::Time start, WnicMode initial);
  void reserve(std::size_t n);
  std::size_t size() const { return mode_.size(); }

  const WnicPowerModel& model() const { return model_; }

  WnicMode mode(std::uint32_t row) const { return mode_[row]; }
  void set_mode(std::uint32_t row, sim::Time now, WnicMode m);
  void add_transient(std::uint32_t row, WnicMode m, sim::Duration dur);
  void finish(std::uint32_t row, sim::Time now) { settle(row, now); }

  double energy_mj(std::uint32_t row, sim::Time now) const;
  sim::Duration time_in(std::uint32_t row, WnicMode m) const {
    return in_mode_[row][static_cast<std::size_t>(m)];
  }
  sim::Duration high_power_time(std::uint32_t row) const;
  std::uint64_t wake_transitions(std::uint32_t row) const {
    return wake_transitions_[row];
  }
  double wake_penalty_mj(std::uint32_t row) const {
    return static_cast<double>(wake_transitions_[row]) *
           model_.wake_energy_mj();
  }

  // Whether the row's mode residencies partition [start, now).
  bool balanced(std::uint32_t row, sim::Time now) const;
  void audit(std::uint32_t row, sim::Time now, const char* component) const;

 private:
  void settle(std::uint32_t row, sim::Time now);

  WnicPowerModel model_;
  // Column vectors, all indexed by row.  The per-transition hot path reads
  // and writes only last_change_/mode_/in_mode_.
  std::vector<sim::Time> start_;
  std::vector<sim::Time> last_change_;
  std::vector<WnicMode> mode_;
  std::vector<std::array<sim::Duration, kNumModes>> in_mode_;
  std::vector<std::array<double, kNumModes>> transient_mj_;
  std::vector<std::uint64_t> wake_transitions_;
};

// Integrates energy over one WNIC mode timeline.  Call set_mode() at each
// transition; totals are exact (piecewise-constant integration).
//
// This is a row handle into an EnergyLedger: the row lives in the ledger
// (Testbed owns one per run; one-off replays build a local one), which
// must outlive the handle.
class EnergyAccountant {
 public:
  EnergyAccountant(EnergyLedger& ledger, sim::Time start,
                   WnicMode initial = WnicMode::Idle)
      : ledger_{&ledger}, row_{ledger.add_row(start, initial)} {}

  EnergyAccountant(const EnergyAccountant&) = delete;
  EnergyAccountant& operator=(const EnergyAccountant&) = delete;

  WnicMode mode() const { return ledger_->mode(row_); }

  // Transition to a new mode at `now`.  A sleep->high transition charges
  // the wake penalty.  Transitions to the current mode are no-ops.
  void set_mode(sim::Time now, WnicMode m) { ledger_->set_mode(row_, now, m); }

  // Account `dur` of a transient mode (receive/transmit) inside the current
  // mode without changing it — used for per-frame airtime while idle.
  void add_transient(WnicMode m, sim::Duration dur) {
    ledger_->add_transient(row_, m, dur);
  }

  // Settle the current mode's residency up to `now` (call before reading
  // time_in()/high_power_time() mid-run or at the end of a run).
  void finish(sim::Time now) { ledger_->finish(row_, now); }

  // -- Results ---------------------------------------------------------------
  double energy_mj(sim::Time now) const {
    return ledger_->energy_mj(row_, now);
  }
  sim::Duration time_in(WnicMode m) const {
    return ledger_->time_in(row_, m);
  }
  // Total time in any high-power mode (everything but sleep).
  sim::Duration high_power_time() const {
    return ledger_->high_power_time(row_);
  }
  std::uint64_t wake_transitions() const {
    return ledger_->wake_transitions(row_);
  }
  double wake_penalty_mj() const { return ledger_->wake_penalty_mj(row_); }

  const WnicPowerModel& model() const { return ledger_->model(); }

  // Invariant audit (see src/check/): mode residencies partition the
  // whole [start, now) interval — Σ time_in(mode) == now - start.
  // balanced() tests it; audit() fails a check unless it holds, with
  // `component` naming the owning client in the violation report.
  bool balanced(sim::Time now) const { return ledger_->balanced(row_, now); }
  void audit(sim::Time now, const char* component) const {
    ledger_->audit(row_, now, component);
  }

 private:
  EnergyLedger* ledger_;
  std::uint32_t row_;
};

// What a naive client — WNIC idle for the whole `span`, never asleep —
// spends when it receives for `receive_airtime` and transmits for
// `transmit_airtime` of it.  The baseline of every energy-saved figure;
// live stations and the postmortem replay both call this one formula.
double naive_energy_mj(const WnicPowerModel& model, sim::Duration span,
                       sim::Duration receive_airtime,
                       sim::Duration transmit_airtime);

// 1 - energy/naive (0 when the naive baseline is not positive).
double saved_fraction(double energy_mj, double naive_mj);

// The paper's closed-form optimal energy saving (Section 4.3):
//
//            E_opt       t_opt * P_recv + (T - t_opt) * P_sleep + b * E_byte
//  saved = 1 ------- = 1 ----------------------------------------------------
//            E_naive      t_nop * P_recv + (T - t_nop) * P_idle + b * E_byte
//
// where t_opt is the time to receive the whole stream back-to-back, T the
// stream duration without the proxy, b the bytes received and E_byte the
// per-byte receive cost.  We fold the per-byte cost into the receive-mode
// power (receive airtime scales with bytes), matching how the trace
// analyzer accounts energy.
struct OptimalInput {
  double stream_seconds;        // T: wall-clock length of the download
  double burst_receive_seconds; // t_opt: airtime to receive all bytes
  WnicPowerModel model{};
};

double optimal_energy_saved_fraction(const OptimalInput& in);

}  // namespace pp::energy
