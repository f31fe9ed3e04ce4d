// ScenarioBuilder: the validated front door for assembling a
// ScenarioConfig, plus the named presets behind the paper's figures.
//
// The raw aggregate stays the immutable built product — run_scenario and
// bench::run_battery consume a plain ScenarioConfig — but construction goes
// through the builder, which rejects nonsense at build() time instead of
// letting it surface as a confusing mid-run failure (or worse, a silently
// ignored knob): a slotted TCP weight on a non-slotted policy, a fault
// window that outlives the horizon, a fidelity index off the end of
// workload::kFidelities, and so on.
//
// Presets encode the experiment grids that used to be copy-pasted across
// the bench binaries: fig4()/fig5()/fig6()/fig7() match the paper's
// Section 4 setups, fault_battery() the SRP-blackout sweep, degradation()
// the hostile everything-at-once example.  A preset returns a builder, so
// call sites chain the knob under study and build():
//
//   auto cfg = ScenarioBuilder::fig7(/*fidelity=*/2, /*tcp_weight=*/0.33)
//                  .seed(7)
//                  .build();
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "exp/scenario.hpp"

namespace pp::exp {

class ScenarioBuilder {
 public:
  ScenarioBuilder() = default;

  // -- Roles -----------------------------------------------------------------------
  ScenarioBuilder& roles(std::vector<int> rs);
  ScenarioBuilder& video(int count, int fidelity);  // appends
  ScenarioBuilder& web(int count = 1);              // appends
  ScenarioBuilder& ftp(int count = 1);              // appends

  // -- Schedule --------------------------------------------------------------------
  ScenarioBuilder& policy(IntervalPolicy p);
  ScenarioBuilder& slotted_tcp_weight(double w);  // SlottedStatic500 only
  ScenarioBuilder& compensation(client::CompensationMode m);
  ScenarioBuilder& honor_reuse(bool on);
  ScenarioBuilder& schedule_repeats(int k);
  ScenarioBuilder& schedule_repeat_spacing(sim::Duration d);
  ScenarioBuilder& miss_escalation(bool on = true);
  // Widen demand-driven slot costs with measured EWMA goodput (any
  // dynamic policy; static schedules ignore per-client costs).
  ScenarioBuilder& measured_goodput(bool on = true);
  // Derive the clients' early-wake guard from the AP jitter bound
  // (default on; fig6 opts out to expose the raw early-transition knob).
  ScenarioBuilder& jitter_guard(bool on);

  // -- Run shape -------------------------------------------------------------------
  ScenarioBuilder& seed(std::uint64_t s);
  ScenarioBuilder& duration_s(double s);
  ScenarioBuilder& video_start_s(double s);
  ScenarioBuilder& video_spacing_s(double s);
  ScenarioBuilder& ftp_bytes(std::uint64_t bytes);
  ScenarioBuilder& web_pages(int pages);
  ScenarioBuilder& web_think_mean_s(double s);
  ScenarioBuilder& video_adaptive(bool on);

  // -- Substrate -------------------------------------------------------------------
  ScenarioBuilder& proxy_mode(proxy::ProxyMode m);
  ScenarioBuilder& cost_model_scale(double scale);
  ScenarioBuilder& naive_clients(bool on = true);
  ScenarioBuilder& wireless_p_loss(double p);  // channel(flat(p))
  ScenarioBuilder& ap_jitter(double p_spike, sim::Duration spike_max);

  // -- Faults & retention ----------------------------------------------------------
  ScenarioBuilder& fault(fault::FaultSpec spec);
  // Mutable access for incremental window building (validated at build()).
  fault::FaultSpec& fault_spec() { return cfg_.fault; }
  // Wireless loss (default flat 1%); composes with faults and churn storms.
  ScenarioBuilder& channel(channel::ChannelSpec spec);
  ScenarioBuilder& keep_trace(bool on = true);
  ScenarioBuilder& keep_obs(bool on = true);

  // Validates and returns the immutable aggregate.  Throws
  // std::invalid_argument with a field-naming message on any violation.
  ScenarioConfig build() const;

  // -- Named presets (the paper's experiment setups) -------------------------------
  // Figure 4 / §4.2: an access pattern under one burst-interval policy,
  // seed 42, 140 s — the common battery cell.
  static ScenarioBuilder fig4(std::vector<int> pattern, IntervalPolicy p);
  // Figure 5: 7 video + 3 web mixed pattern under one policy.
  static ScenarioBuilder fig5(std::vector<int> pattern, IntervalPolicy p);
  // Figure 6: one 56K client at 100 ms with pronounced AP jitter and the
  // wireless trace retained for postmortem replay.
  static ScenarioBuilder fig6();
  // Figure 7: nine video clients of one fidelity + one background web
  // client on the slotted static schedule.
  static ScenarioBuilder fig7(int fidelity, double tcp_weight);
  // Fault battery base (bench/fault_sweep): `clients` 128K streams, no
  // channel noise; `faulted` adds the SRP-blackout fades + one AP stall.
  static ScenarioBuilder fault_battery(int clients, double duration_s,
                                       bool faulted);
  // Hostile everything-at-once scenario (examples/degradation_report):
  // Gilbert-Elliott channel + one window of every typed fault, hardening
  // on.
  static ScenarioBuilder degradation(double duration_s);

 private:
  ScenarioConfig cfg_;
  bool weight_set_ = false;
};

namespace presets {

// The paper's five Figure-4 access patterns, ten clients each.
// 0=56K 1=128K 2=256K 3=512K.
std::vector<std::pair<std::string, std::vector<int>>> fig4_patterns();
// Figure 5: seven video clients + three web clients.
std::vector<std::pair<std::string, std::vector<int>>> fig5_patterns();
// The three dynamic burst-interval policies, display-labelled.
std::vector<std::pair<std::string, IntervalPolicy>> dynamic_intervals();

}  // namespace presets

}  // namespace pp::exp
