// Postmortem energy analysis (Sections 3.1 and 4.1).
//
// Replays a wireless trace for one client under a chosen power policy and
// computes: time in high/low power, bytes received/transmitted, packets
// lost, and energy — compared against the naive client that keeps its WNIC
// in high-power mode for the whole trace.
//
// The replay drives the *same* PowerDaemon code the live client runs, in a
// private simulator, so live and postmortem results agree by construction
// (a property the tests check).  Varying DaemonConfig across replays of one
// trace is how the early-transition sweep of Figure 6 is produced.
#pragma once

#include <cstdint>

#include "client/power_daemon.hpp"
#include "energy/wnic.hpp"
#include "net/addr.hpp"
#include "trace/record.hpp"

namespace pp::trace {

struct PostmortemReport {
  net::Ipv4Addr client;
  double energy_mj = 0;
  double naive_energy_mj = 0;
  double saved_fraction = 0;  // 1 - energy/naive
  sim::Duration high_power_time;
  sim::Duration low_power_time;
  std::uint64_t wake_transitions = 0;
  std::uint64_t bytes_received = 0;
  std::uint64_t packets_received = 0;
  std::uint64_t packets_missed = 0;
  double loss_fraction = 0;
  std::uint64_t schedules_received = 0;
  std::uint64_t schedules_missed = 0;
  // Figure 6 decomposition of wasted high-power time.
  sim::Duration early_wait;
  sim::Duration missed_wait;
  double early_wait_mj = 0;
  double missed_wait_mj = 0;
};

class PostmortemAnalyzer {
 public:
  PostmortemAnalyzer(const TraceBuffer& trace,
                     energy::WnicPowerModel model = {})
      : trace_{trace}, model_{model} {}

  // Replay the trace for `client` under `cfg`.  `horizon` extends the
  // accounting window past the last frame (use the experiment length).
  PostmortemReport analyze(net::Ipv4Addr client,
                           const client::DaemonConfig& cfg,
                           sim::Time horizon = sim::Time::zero()) const;

 private:
  const TraceBuffer& trace_;
  energy::WnicPowerModel model_;
};

}  // namespace pp::trace
