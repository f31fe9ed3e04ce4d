// FaultPlan: the runtime half of the fault-injection layer.
//
// Constructed from a FaultSpec, a FaultPlan schedules every fault window
// on the simulator, applies and reverts the component effect at the window
// edges (deep fade on the medium, AP stall, link flap, proxy pause, client
// churn), and records FaultStart/FaultEnd timeline events.  It checks its
// own pairing: a recovery needs an open window of its kind, and audit()
// demands every window closed by the end of the run.  It draws no random
// numbers: window edges are
// pure data, so a faulted run stays a pure function of its config and
// replay digests keep holding under different hash salts.  Frame
// corruption is the medium's loss model, never the plan's.
#pragma once

#include <cstdint>
#include <functional>
#include <map>

#include "fault/spec.hpp"
#include "net/link.hpp"
#include "net/wireless.hpp"
#include "obs/hooks.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"

namespace pp::net {
class AccessPoint;
}  // namespace pp::net

namespace pp::fault {

struct FaultStats {
  std::uint64_t windows_activated = 0;
  std::uint64_t windows_recovered = 0;
  std::uint64_t fade_losses = 0;  // frames killed by a deep-fade window
};

class FaultPlan {
 public:
  FaultPlan(sim::Simulator& sim, FaultSpec spec);

  FaultPlan(const FaultPlan&) = delete;
  FaultPlan& operator=(const FaultPlan&) = delete;

  // -- Wiring (all optional; unwired effects are skipped) -------------------------
  // DeepFade windows fade the client's channel on this medium.
  void attach_medium(net::WirelessMedium& medium) { medium_ = &medium; }
  void attach_access_point(net::AccessPoint& ap) { ap_ = &ap; }
  // Both directions of the proxy <-> AP wired link (flapped together).
  void attach_wired_link(net::Channel& downlink, net::Channel& uplink);
  // Called with true on ProxyPause activation, false on recovery.
  void set_proxy_pause(std::function<void(bool paused)> fn) {
    proxy_pause_ = std::move(fn);
  }
  // Called with (client, true) when a ClientChurn window opens (the client
  // leaves the cell) and (client, false) when it closes (rejoin).  Unlike
  // the system-wide kinds, churn applies per window: overlapping windows
  // for different clients each fire.
  void set_churn(std::function<void(net::Ipv4Addr client, bool away)> fn) {
    churn_ = std::move(fn);
  }

  // Attach the window-length histogram and FaultStart/FaultEnd timeline
  // events.
  void set_obs(obs::Hook hook);
  // Write the fault.windows_* counters from the plan's own counts.
  void publish(obs::MetricsRegistry& m) const;

  // Schedule every window on the simulator.  Call once, before running.
  void arm();
  // End-of-run check: every window that opened has recovered (an outage
  // that never recovers leaves frozen queues behind the conservation
  // audits).  Trips `fault.window.open`.
  void audit() const;

  // Window counters, plus the attached medium's fade losses.
  FaultStats stats() const;
  const FaultSpec& spec() const { return spec_; }
  // True while any window of `kind` is open (diagnostics / tests).
  bool active(FaultKind kind) const;

 private:
  void activate(const FaultWindow& w);
  void recover(const FaultWindow& w);
  void apply(const FaultWindow& w, bool on);

  sim::Simulator& sim_;
  FaultSpec spec_;

  net::WirelessMedium* medium_ = nullptr;
  net::AccessPoint* ap_ = nullptr;
  net::Channel* link_down_ = nullptr;
  net::Channel* link_up_ = nullptr;
  std::function<void(bool)> proxy_pause_;
  std::function<void(net::Ipv4Addr, bool)> churn_;

  // Open-window depth per kind, so overlapping windows of one kind nest.
  std::map<FaultKind, int> depth_;

  FaultStats stats_;
  obs::Hook obs_;
  obs::Histogram* hist_window_us_ = nullptr;
};

// The named churn RNG stream, consumed only by expand_churn_storm:
// derived from the run seed and its own tag, never the simulator's stream.
sim::Rng churn_stream(std::uint64_t run_seed);

// Expand a churn storm into concrete per-client ClientChurn windows over
// `fleet`.  Pure function of (storm, fleet, run_seed): the flapping subset
// is chosen by seeded Fisher-Yates draws and each chosen client alternates
// away/home periods drawn uniformly from the storm's bounds, clipped so
// every window closes before the storm does.  Returns an empty vector when
// the storm is disabled or the fleet is empty.
std::vector<FaultWindow> expand_churn_storm(const ChurnStorm& storm,
                                            const std::vector<net::Ipv4Addr>& fleet,
                                            std::uint64_t run_seed);

}  // namespace pp::fault
