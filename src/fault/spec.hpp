// Fault specifications: the declarative half of the fault-injection layer.
//
// A FaultSpec describes everything that can go wrong during a run, as pure
// data: a list of typed fault windows (per-client deep fades, access-point
// forwarding stalls, wired link flaps, proxy pause/resume, client churn)
// plus an optional churn storm that expands into churn windows.  Random
// frame corruption is not a fault: it belongs to the medium's loss model,
// a channel::ChannelSpec (e.g. the flat or Gilbert-Elliott two_state
// preset).  The spec lives in configuration structs
// (exp::ScenarioConfig, exp::TestbedParams); the runtime half that
// schedules and applies it is fault::FaultPlan.
//
// Deliberately light on dependencies (addresses and times only) so that
// config-level code can embed a spec without pulling in the network stack.
#pragma once

#include <cstdint>
#include <vector>

#include "net/addr.hpp"
#include "sim/time.hpp"

namespace pp::fault {

// What a fault window does while it is open.
enum class FaultKind : std::uint8_t {
  DeepFade = 1,     // total loss on one client's channel (both directions)
  ApStall = 2,      // access point freezes downlink forwarding (queue holds)
  LinkFlap = 3,     // proxy <-> AP wired link drops everything
  ProxyPause = 4,   // proxy scheduling loop pauses (queues preserved)
  ClientChurn = 5,  // client leaves the cell, rejoining at window close
};

const char* to_string(FaultKind k);

// A closed interval of misbehaviour: [start, start + duration).  Windows
// must close before the run's horizon -- the check::Auditor verifies every
// activation has a matching recovery by end of run.
struct FaultWindow {
  FaultKind kind = FaultKind::DeepFade;
  // DeepFade / ClientChurn target; default (0.0.0.0) for system-wide kinds.
  net::Ipv4Addr client{};
  sim::Time start;
  sim::Duration duration;

  sim::Time end() const { return start + duration; }
};

// Churn storm: flap a fraction of the fleet with randomized away/home
// periods.  Declarative only — the testbed (which knows the fleet's
// addresses) expands it into concrete ClientChurn windows via
// fault::expand_churn_storm, drawing from the named churn RNG stream so
// the expansion is a pure, salt-invariant function of (storm, fleet,
// run seed).
struct ChurnStorm {
  bool enabled = false;
  sim::Time start;
  sim::Duration duration;
  double flap_fraction = 0.25;  // fraction of the fleet that flaps
  // Per-cycle bounds: each flapping client alternates away/home periods
  // drawn uniformly from these ranges; windows always close before the
  // storm ends (the auditor demands recovery by end of run).
  sim::Duration min_away = sim::Time::ms(1500);
  sim::Duration max_away = sim::Time::ms(4000);
  sim::Duration min_home = sim::Time::ms(1500);
  sim::Duration max_home = sim::Time::ms(4000);
};

struct FaultSpec {
  std::vector<FaultWindow> windows;
  ChurnStorm storm{};

  bool any() const { return storm.enabled || !windows.empty(); }

  // -- Convenience builders -------------------------------------------------------
  FaultSpec& fade(net::Ipv4Addr client, sim::Time start, sim::Duration dur) {
    windows.push_back({FaultKind::DeepFade, client, start, dur});
    return *this;
  }
  FaultSpec& ap_stall(sim::Time start, sim::Duration dur) {
    windows.push_back({FaultKind::ApStall, net::Ipv4Addr{}, start, dur});
    return *this;
  }
  FaultSpec& link_flap(sim::Time start, sim::Duration dur) {
    windows.push_back({FaultKind::LinkFlap, net::Ipv4Addr{}, start, dur});
    return *this;
  }
  FaultSpec& proxy_pause(sim::Time start, sim::Duration dur) {
    windows.push_back({FaultKind::ProxyPause, net::Ipv4Addr{}, start, dur});
    return *this;
  }
  FaultSpec& churn(net::Ipv4Addr client, sim::Time start, sim::Duration dur) {
    windows.push_back({FaultKind::ClientChurn, client, start, dur});
    return *this;
  }
  FaultSpec& churn_storm(sim::Time start, sim::Duration dur,
                         double flap_fraction = 0.25) {
    storm.enabled = true;
    storm.start = start;
    storm.duration = dur;
    storm.flap_fraction = flap_fraction;
    return *this;
  }
};

}  // namespace pp::fault
