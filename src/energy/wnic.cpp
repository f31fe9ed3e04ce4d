#include "energy/wnic.hpp"

#include "check/check.hpp"

namespace pp::energy {

std::uint32_t EnergyLedger::add_row(sim::Time start, WnicMode initial) {
  const std::uint32_t row = static_cast<std::uint32_t>(mode_.size());
  start_.push_back(start);
  last_change_.push_back(start);
  mode_.push_back(initial);
  in_mode_.emplace_back();
  transient_mj_.emplace_back();
  wake_transitions_.push_back(0);
  return row;
}

void EnergyLedger::reserve(std::size_t n) {
  start_.reserve(n);
  last_change_.reserve(n);
  mode_.reserve(n);
  in_mode_.reserve(n);
  transient_mj_.reserve(n);
  wake_transitions_.reserve(n);
}

void EnergyLedger::settle(std::uint32_t row, sim::Time now) {
  PP_CHECK_AT(now >= last_change_[row], "energy.accountant.settle", now);
  in_mode_[row][static_cast<std::size_t>(mode_[row])] +=
      now - last_change_[row];
  last_change_[row] = now;
}

bool EnergyLedger::balanced(std::uint32_t row, sim::Time now) const {
  // Energy conservation: every nanosecond between construction and `now`
  // is attributed to exactly one mode.  Requires finish(now) first so the
  // open residency interval is settled.
  // Auditing at a time before the last settled transition would make the
  // open-interval term below negative and could mask missing residency.
  if (now < last_change_[row]) return false;
  sim::Duration total = sim::Time::zero();
  for (const sim::Duration& d : in_mode_[row]) {
    if (d < sim::Time::zero()) return false;
    total += d;
  }
  return total + (now - last_change_[row]) == now - start_[row];
}

void EnergyLedger::audit(std::uint32_t row, sim::Time now,
                         const char* component) const {
  PP_CHECK_AT(balanced(row, now), component, now);
}

void EnergyLedger::set_mode(std::uint32_t row, sim::Time now, WnicMode m) {
  if (m == mode_[row]) return;
  settle(row, now);
  if (mode_[row] == WnicMode::Sleep && m != WnicMode::Sleep)
    ++wake_transitions_[row];
  mode_[row] = m;
}

void EnergyLedger::add_transient(std::uint32_t row, WnicMode m,
                                 sim::Duration dur) {
  const double base = model_.mw(mode_[row]);
  const double actual = model_.mw(m);
  // Charge the difference: the base-mode time accrues normally via settle().
  transient_mj_[row][static_cast<std::size_t>(m)] +=
      (actual - base) * dur.to_seconds();
}

double EnergyLedger::energy_mj(std::uint32_t row, sim::Time now) const {
  double mj = 0;
  for (std::size_t i = 0; i < kNumModes; ++i) {
    sim::Duration d = in_mode_[row][i];
    if (i == static_cast<std::size_t>(mode_[row])) d += now - last_change_[row];
    mj += model_.milliwatts[i] * d.to_seconds();
    mj += transient_mj_[row][i];
  }
  mj += wake_penalty_mj(row);
  return mj;
}

sim::Duration EnergyLedger::high_power_time(std::uint32_t row) const {
  sim::Duration d = sim::Time::zero();
  for (std::size_t i = 0; i < kNumModes; ++i) {
    if (i != static_cast<std::size_t>(WnicMode::Sleep)) d += in_mode_[row][i];
  }
  return d;
}

double naive_energy_mj(const WnicPowerModel& model, sim::Duration span,
                       sim::Duration receive_airtime,
                       sim::Duration transmit_airtime) {
  const double idle = model.mw(WnicMode::Idle);
  return idle * span.to_seconds() +
         (model.mw(WnicMode::Receive) - idle) * receive_airtime.to_seconds() +
         (model.mw(WnicMode::Transmit) - idle) * transmit_airtime.to_seconds();
}

double saved_fraction(double energy_mj, double naive_mj) {
  return naive_mj > 0 ? 1.0 - energy_mj / naive_mj : 0;
}

double optimal_energy_saved_fraction(const OptimalInput& in) {
  const auto& m = in.model;
  const double t = in.burst_receive_seconds;
  const double T = in.stream_seconds;
  const double e_opt = t * m.mw(WnicMode::Receive) +
                       (T - t) * m.mw(WnicMode::Sleep);
  const double e_naive = t * m.mw(WnicMode::Receive) +
                         (T - t) * m.mw(WnicMode::Idle);
  return 1.0 - e_opt / e_naive;
}

}  // namespace pp::energy
