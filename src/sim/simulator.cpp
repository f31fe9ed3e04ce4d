#include "sim/simulator.hpp"

#include "check/check.hpp"

namespace pp::sim {

void Simulator::run() {
  stopped_ = false;
  while (!stopped_ && !queue_.empty()) {
    auto [when, fn] = queue_.pop();
    PP_CHECK_AT(when >= now_, "sim.simulator.monotonic_clock", now_);
    now_ = when;
    fn();
  }
}

void Simulator::run_until(Time until) {
  stopped_ = false;
  while (!stopped_ && queue_.next_time() <= until) {
    auto [when, fn] = queue_.pop();
    PP_CHECK_AT(when >= now_, "sim.simulator.monotonic_clock", now_);
    now_ = when;
    fn();
  }
  if (!stopped_ && now_ < until) now_ = until;
}

}  // namespace pp::sim
