// Scenario runners for the paper's experiments (Section 4).
//
// One generic runner covers the three experiment families — all-video
// (Figure 4), all-web (the "Multiple TCP clients" text result), and mixed
// video + TCP (Figure 5) — plus the static and slotted-static baselines
// (Section 4.3 / Figure 7) and the drop studies.  Each client is assigned
// a role: a video fidelity, web browsing, or an ftp download.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "channel/spec.hpp"
#include "client/power_daemon.hpp"
#include "exp/testbed.hpp"
#include "fault/spec.hpp"
#include "proxy/transparent_proxy.hpp"
#include "trace/record.hpp"

namespace pp::exp {

// Client roles.
inline constexpr int kRoleWeb = -1;
inline constexpr int kRoleFtp = -2;
// Idle: associated and power-managed but runs no application of its own —
// it only receives what others send it (cross-cell backbone traffic in the
// multi-cell engine).  This is what makes 100k-client fleets tractable:
// an idle client costs a few schedule events per SRP, not a workload.
inline constexpr int kRoleIdle = -3;
// Non-negative role values are video fidelity indices (see
// workload::kFidelities): 0=56K, 1=128K, 2=256K, 3=512K.

inline bool is_video_role(int role) { return role >= 0; }
std::string role_name(int role);

enum class IntervalPolicy {
  Fixed100,
  Fixed500,
  Variable,
  StaticEqual100,   // Section 4.3 static-schedule comparison
  SlottedStatic500,  // Figure 7: fixed TCP + UDP slots
  // -- Policy zoo (src/proxy/policies.hpp): queue/channel-aware layouts ----------
  LongestQueue500,   // max-queue priority, tail starved
  Opportunistic500,  // defer bad-channel clients within deadline slack
  Probabilistic500,  // randomized buffer-threshold admission
};
std::string policy_name(IntervalPolicy p);

struct ScenarioConfig {
  std::vector<int> roles;  // one per client
  IntervalPolicy policy = IntervalPolicy::Fixed500;
  std::uint64_t seed = 1;
  client::CompensationMode compensation = client::CompensationMode::Adaptive;
  // Derive the clients' early-wake guard from the AP's configured jitter
  // bound (jitter_max + spike_max): an anchor carried by a maximally-spiked
  // broadcast can shift the next arrival past a fixed early amount and
  // desync the client.  Opt out (fig6 does) to study the raw
  // early-transition trade-off the paper plots.
  bool jitter_guard = true;
  double slotted_tcp_weight = 0.33;  // only for SlottedStatic500
  proxy::ProxyMode proxy_mode = proxy::ProxyMode::Splice;
  double cost_model_scale = 1.0;  // ablation: mis-calibrated send cost
  bool honor_reuse = true;        // ablation: schedule-reuse extension
  bool naive_clients = false;     // baseline: WNIC always in high power
  double duration_s = 140.0;
  double video_start_s = 2.0;
  double video_spacing_s = 1.0;  // requests spaced ~1 s apart (Section 4.1)
  std::uint64_t ftp_bytes = 3'000'000;
  int web_pages = 20;
  double web_think_mean_s = 4.0;
  bool keep_trace = false;  // retain the monitoring-station trace
  // Attach the time gauges, histograms and timeline to the run and retain
  // the observer in the result.  Without it the run records no stream;
  // its counters are still published into bed().metrics() at finish().
  bool keep_obs = false;
  // Per-client observability: each client publishes its counters and,
  // under keep_obs, its awake time-gauge and power-transition events.  On
  // by default; scale runs (100k clients) turn it off and keep only the
  // cell-level counters — per-client results still come from the clients'
  // own counters, which are always maintained.
  bool per_client_obs = true;
  // Access-point forwarding jitter and delay spikes (see ap_jitter()).
  net::AccessPointParams ap{};
  bool video_adaptive = true;  // RealServer loss adaptation on/off
  // -- Fault injection & graceful degradation (see src/fault/) -------------------
  // Typed fault windows and churn storms; empty = no faults.
  fault::FaultSpec fault{};
  // -- Wireless loss (see src/channel/) -------------------------------------------
  // Flat 1% by default: real 802.11b loses the occasional frame, and lost
  // marks and schedules make the paper's worst-case clients.  Ladders (e.g.
  // the Gilbert-Elliott two_state preset) model fades; no rungs = lossless.
  // Composes with `fault`, whose deep fades override it.
  channel::ChannelSpec channel = channel::ChannelSpec::flat(0.01);
  // Proxy schedule hardening: SRP broadcast transmissions per interval.
  int schedule_repeats = 1;
  sim::Duration schedule_repeat_spacing = sim::Time::ms(3);
  // Client-side missed-schedule escalation (bounded grace backoff).
  bool miss_escalation = false;
  // Opportunistic500 only: widen slot cost estimates with the measured
  // EWMA goodput from the channel observer (never narrows them).
  bool measured_goodput = false;
};

struct ClientResult {
  net::Ipv4Addr ip;
  int role = 0;
  double saved_pct = 0;     // energy saved vs naive, percent
  double energy_mj = 0;
  double naive_mj = 0;
  double loss_pct = 0;      // packets addressed to the client it missed
  std::uint64_t packets_received = 0;
  std::uint64_t packets_missed = 0;
  std::uint64_t bytes_received = 0;
  std::uint64_t schedules_received = 0;
  std::uint64_t schedules_missed = 0;
  std::uint64_t sleeps = 0;
  // Degradation counters (see client::DaemonStats).
  std::uint64_t first_misses = 0;
  std::uint64_t repeat_misses = 0;
  std::uint64_t escalated_sleeps = 0;
  std::uint64_t resyncs = 0;
  std::uint64_t repeats_deduped = 0;
  std::uint64_t coast_breaks = 0;
  // Application-level metrics (role-dependent).
  double app_loss_pct = 0;       // video: sequence-gap loss
  int video_fidelity_final = -1; // video: fidelity after adaptation
  // pp-lint: allow(naked-duration): derived report statistic, not sim state
  double mean_delay_ms = 0;      // mean downlink UDP datagram delay
  std::uint64_t delay_samples = 0;
  // pp-lint: allow(naked-duration): derived report statistic, not sim state
  double page_time_ms = 0;       // web: mean page completion time
  int pages_completed = 0;       // web
  double ftp_seconds = 0;        // ftp: transfer duration
  std::uint64_t app_bytes = 0;
  // Association lifecycle (zero unless churn windows enabled the agent).
  std::uint64_t assoc_joins = 0;
  std::uint64_t assoc_leaves = 0;
  std::uint64_t assoc_retries = 0;  // join + leave retransmissions
};

struct ScenarioResult {
  std::vector<ClientResult> clients;
  proxy::ProxyStats proxy_stats;
  sim::Time horizon;
  trace::TraceBuffer trace;  // populated when keep_trace
  std::uint64_t ap_drops = 0;
  std::uint64_t frames_on_air = 0;
  // Fault-layer stats (zeroed when cfg.fault is empty).
  fault::FaultStats fault_stats{};
  // Populated when keep_obs: the counters, time gauges (finalized at
  // `horizon`), histograms and event timeline from the run.
  std::shared_ptr<obs::Observer> obs;
};

// A scenario decomposed into build / advance / collect steps.
//
// run_scenario() composes all three; the multi-cell engine
// (exp/multicell.hpp) instead holds one ScenarioRun per cell, arms the
// cell's backbone arrivals, and advances the cells on worker threads.  Construction builds the full testbed (servers,
// workload apps, scheduler) and starts it; advance() drains events up to a
// time (monotone across calls); finish() settles audits at the configured
// horizon and collects the ScenarioResult (call once, after the last
// advance).
class ScenarioRun {
 public:
  // `pre_start` (when given) runs after the testbed and workloads are
  // built but before bed.start(): the hook point where the multi-cell
  // engine adds its backbone gateway node to each cell.
  explicit ScenarioRun(
      const ScenarioConfig& cfg,
      // pp-lint: allow(hot-path-alloc): construction-time hook, runs once
      const std::function<void(Testbed&)>& pre_start = {});
  ~ScenarioRun();
  ScenarioRun(const ScenarioRun&) = delete;
  ScenarioRun& operator=(const ScenarioRun&) = delete;

  Testbed& bed() { return *bed_; }
  const ScenarioConfig& config() const { return cfg_; }
  sim::Time horizon() const { return sim::Time::seconds(cfg_.duration_s); }

  void advance(sim::Time t) { bed_->run_until(t); }
  ScenarioResult finish();

 private:
  ScenarioConfig cfg_;
  std::unique_ptr<Testbed> bed_;
  struct Apps;  // servers + per-client workload applications
  std::unique_ptr<Apps> apps_;
};

ScenarioResult run_scenario(const ScenarioConfig& cfg);

// -- Summaries --------------------------------------------------------------------

struct Summary {
  double avg = 0, min = 0, max = 0;
  int n = 0;
};

// Summarize saved_pct over clients matching `pred` (all when empty).
template <typename Pred>
Summary summarize_saved(const std::vector<ClientResult>& clients, Pred pred) {
  Summary s;
  for (const auto& c : clients) {
    if (!pred(c)) continue;
    if (s.n == 0) {
      s.min = s.max = c.saved_pct;
    } else {
      s.min = std::min(s.min, c.saved_pct);
      s.max = std::max(s.max, c.saved_pct);
    }
    s.avg += c.saved_pct;
    ++s.n;
  }
  if (s.n > 0) s.avg /= s.n;
  return s;
}

Summary summarize_all(const std::vector<ClientResult>& clients);
Summary summarize_video(const std::vector<ClientResult>& clients);
Summary summarize_tcp(const std::vector<ClientResult>& clients);
double average_loss_pct(const std::vector<ClientResult>& clients);

}  // namespace pp::exp
