#include "fault/plan.hpp"

#include <algorithm>
#include <utility>

#include "check/check.hpp"
#include "net/access_point.hpp"
#include "obs/observer.hpp"

namespace pp::fault {

namespace {

bool per_client(FaultKind k) {
  return k == FaultKind::DeepFade || k == FaultKind::ClientChurn;
}

// Stream tag folded into the run seed so churn-storm expansion is
// independent of the simulator's shared stream and of the channel streams.
// Changing this constant changes every churn-storm run.
constexpr std::uint64_t kChurnStreamTag = 0xC1108A17'F1A55EEDULL;

}  // namespace

const char* to_string(FaultKind k) {
  switch (k) {
    case FaultKind::DeepFade:
      return "deep_fade";
    case FaultKind::ApStall:
      return "ap_stall";
    case FaultKind::LinkFlap:
      return "link_flap";
    case FaultKind::ProxyPause:
      return "proxy_pause";
    case FaultKind::ClientChurn:
      return "client_churn";
  }
  return "?";
}

sim::Rng churn_stream(std::uint64_t run_seed) {
  return sim::Rng{run_seed ^ kChurnStreamTag};
}

std::vector<FaultWindow> expand_churn_storm(
    const ChurnStorm& storm, const std::vector<net::Ipv4Addr>& fleet,
    std::uint64_t run_seed) {
  std::vector<FaultWindow> windows;
  if (!storm.enabled || fleet.empty()) return windows;

  sim::Rng rng = churn_stream(run_seed);

  // Uniform duration draw over [lo, hi]; degenerate ranges collapse to lo.
  auto draw = [&rng](sim::Duration lo, sim::Duration hi) {
    if (hi.count_ns() <= lo.count_ns()) return lo;
    return sim::Time::ns(rng.uniform_int(lo.count_ns(), hi.count_ns()));
  };

  // Pick the flapping subset with a seeded partial Fisher-Yates shuffle so
  // the choice depends only on (fleet order, seed), never on hash layout.
  std::vector<net::Ipv4Addr> pool = fleet;
  std::size_t n_flap = static_cast<std::size_t>(
      storm.flap_fraction * static_cast<double>(pool.size()) + 0.5);
  n_flap = std::max<std::size_t>(1, std::min(n_flap, pool.size()));
  for (std::size_t i = 0; i < n_flap; ++i) {
    const std::size_t j =
        i + static_cast<std::size_t>(rng.uniform_int(
                0, static_cast<std::int64_t>(pool.size() - i) - 1));
    std::swap(pool[i], pool[j]);
  }

  // Each flapping client alternates: home stagger, then away/home cycles.
  // Every away window must close strictly before the storm does, so the
  // plan's end-of-run audit (no window left open) always holds.
  const sim::Time storm_end = storm.start + storm.duration;
  for (std::size_t i = 0; i < n_flap; ++i) {
    sim::Time t = storm.start + draw(storm.min_home, storm.max_home);
    for (;;) {
      const sim::Duration away = draw(storm.min_away, storm.max_away);
      if (t + away >= storm_end) break;
      windows.push_back({FaultKind::ClientChurn, pool[i], t, away});
      t = t + away + draw(storm.min_home, storm.max_home);
    }
  }
  return windows;
}

FaultPlan::FaultPlan(sim::Simulator& sim, FaultSpec spec)
    : sim_{sim}, spec_{std::move(spec)} {}

void FaultPlan::attach_wired_link(net::Channel& downlink,
                                  net::Channel& uplink) {
  link_down_ = &downlink;
  link_up_ = &uplink;
}

void FaultPlan::set_obs(obs::Observer* ob) {
  obs_ = ob;
  if (obs_) hist_window_us_ = obs_->metrics.histogram("fault.window_us");
}

void FaultPlan::publish(obs::MetricsRegistry& m) const {
  m.counter("fault.windows_activated")->inc(stats_.windows_activated);
  m.counter("fault.windows_recovered")->inc(stats_.windows_recovered);
}

void FaultPlan::arm() {
  for (std::size_t i = 0; i < spec_.windows.size(); ++i) {
    const FaultWindow& w = spec_.windows[i];
    PP_CHECK(w.duration > sim::Time::zero(), "fault.window.duration");
    sim_.at(w.start, [this, i] { activate(spec_.windows[i]); });
    sim_.at(w.end(), [this, i] { recover(spec_.windows[i]); });
  }
}

void FaultPlan::activate(const FaultWindow& w) {
  ++stats_.windows_activated;
  const int depth = ++depth_[w.kind];
  // System-wide kinds nest (only the outermost edge applies); per-client
  // windows target distinct clients, so every window's own edges fire.
  if (depth == 1 || per_client(w.kind)) apply(w, true);
  if (obs_)
    obs_->timeline.record(sim_.now(), obs::EventKind::FaultStart,
                          w.client.raw(), static_cast<std::uint64_t>(w.kind));
}

void FaultPlan::recover(const FaultWindow& w) {
  ++stats_.windows_recovered;
  auto it = depth_.find(w.kind);
  PP_CHECK_AT(it != depth_.end() && it->second > 0, "fault.window.pairing",
              sim_.now());
  const bool closed = --it->second == 0;
  if (closed) depth_.erase(it);
  if (closed || per_client(w.kind)) apply(w, false);
  if (obs_) {
    hist_window_us_->observe(static_cast<std::uint64_t>(w.duration.count_us()));
    obs_->timeline.record(sim_.now(), obs::EventKind::FaultEnd, w.client.raw(),
                          static_cast<std::uint64_t>(w.kind));
  }
}

void FaultPlan::apply(const FaultWindow& w, bool on) {
  switch (w.kind) {
    case FaultKind::DeepFade:
      if (medium_ != nullptr) medium_->set_faded(w.client, on);
      break;
    case FaultKind::ApStall:
      if (ap_ != nullptr) ap_->set_stalled(on);
      break;
    case FaultKind::LinkFlap:
      if (link_down_ != nullptr) link_down_->set_down(on);
      if (link_up_ != nullptr) link_up_->set_down(on);
      break;
    case FaultKind::ProxyPause:
      if (proxy_pause_) proxy_pause_(on);
      break;
    case FaultKind::ClientChurn:
      if (churn_) churn_(w.client, on);
      break;
  }
}

void FaultPlan::audit() const {
  PP_CHECK_AT(depth_.empty(), "fault.window.open", sim_.now());
}

bool FaultPlan::active(FaultKind kind) const {
  auto it = depth_.find(kind);
  return it != depth_.end() && it->second > 0;
}

FaultStats FaultPlan::stats() const {
  FaultStats s = stats_;
  if (medium_ != nullptr) s.fade_losses = medium_->fade_losses();
  return s;
}

}  // namespace pp::fault
