#include "exp/builder.hpp"

#include <stdexcept>
#include <string>

#include "exp/testbed.hpp"
#include "workload/video.hpp"

namespace pp::exp {

namespace {

[[noreturn]] void fail(const std::string& what) {
  throw std::invalid_argument("ScenarioBuilder: " + what);
}

}  // namespace

ScenarioBuilder& ScenarioBuilder::roles(std::vector<int> rs) {
  cfg_.roles = std::move(rs);
  return *this;
}

ScenarioBuilder& ScenarioBuilder::video(int count, int fidelity) {
  cfg_.roles.reserve(cfg_.roles.size() + static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) cfg_.roles.push_back(fidelity);
  return *this;
}

ScenarioBuilder& ScenarioBuilder::web(int count) {
  cfg_.roles.reserve(cfg_.roles.size() + static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) cfg_.roles.push_back(kRoleWeb);
  return *this;
}

ScenarioBuilder& ScenarioBuilder::ftp(int count) {
  cfg_.roles.reserve(cfg_.roles.size() + static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) cfg_.roles.push_back(kRoleFtp);
  return *this;
}

ScenarioBuilder& ScenarioBuilder::policy(IntervalPolicy p) {
  cfg_.policy = p;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::slotted_tcp_weight(double w) {
  cfg_.slotted_tcp_weight = w;
  weight_set_ = true;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::compensation(client::CompensationMode m) {
  cfg_.compensation = m;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::honor_reuse(bool on) {
  cfg_.honor_reuse = on;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::schedule_repeats(int k) {
  cfg_.schedule_repeats = k;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::schedule_repeat_spacing(sim::Duration d) {
  cfg_.schedule_repeat_spacing = d;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::miss_escalation(bool on) {
  cfg_.miss_escalation = on;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::measured_goodput(bool on) {
  cfg_.measured_goodput = on;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::jitter_guard(bool on) {
  cfg_.jitter_guard = on;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::seed(std::uint64_t s) {
  cfg_.seed = s;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::duration_s(double s) {
  cfg_.duration_s = s;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::video_start_s(double s) {
  cfg_.video_start_s = s;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::video_spacing_s(double s) {
  cfg_.video_spacing_s = s;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::ftp_bytes(std::uint64_t bytes) {
  cfg_.ftp_bytes = bytes;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::web_pages(int pages) {
  cfg_.web_pages = pages;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::web_think_mean_s(double s) {
  cfg_.web_think_mean_s = s;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::video_adaptive(bool on) {
  cfg_.video_adaptive = on;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::proxy_mode(proxy::ProxyMode m) {
  cfg_.proxy_mode = m;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::cost_model_scale(double scale) {
  cfg_.cost_model_scale = scale;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::naive_clients(bool on) {
  cfg_.naive_clients = on;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::wireless_p_loss(double p) {
  return channel(channel::ChannelSpec::flat(p));
}

ScenarioBuilder& ScenarioBuilder::ap_jitter(double p_spike,
                                            sim::Duration spike_max) {
  cfg_.ap.p_spike = p_spike;
  cfg_.ap.spike_max = spike_max;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::fault(fault::FaultSpec spec) {
  cfg_.fault = std::move(spec);
  return *this;
}

ScenarioBuilder& ScenarioBuilder::channel(channel::ChannelSpec spec) {
  cfg_.channel = std::move(spec);
  return *this;
}

ScenarioBuilder& ScenarioBuilder::keep_trace(bool on) {
  cfg_.keep_trace = on;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::keep_obs(bool on) {
  cfg_.keep_obs = on;
  return *this;
}

ScenarioConfig ScenarioBuilder::build() const {
  const ScenarioConfig& c = cfg_;
  if (c.roles.empty()) fail("no clients (roles is empty)");
  bool any_video = false, any_tcp = false;
  for (const int r : c.roles) {
    if (is_video_role(r)) {
      if (r >= workload::kNumFidelities) {
        fail("fidelity index " + std::to_string(r) + " out of range (have " +
             std::to_string(workload::kNumFidelities) + " fidelities)");
      }
      any_video = true;
    } else if (r == kRoleWeb || r == kRoleFtp) {
      any_tcp = true;
    } else if (r == kRoleIdle) {
      // Neither video nor TCP: idle clients carry no workload of their own.
    } else {
      fail("unknown role " + std::to_string(r));
    }
  }
  if (weight_set_ && c.policy != IntervalPolicy::SlottedStatic500) {
    fail("slotted_tcp_weight is only meaningful under SlottedStatic500");
  }
  if (c.policy == IntervalPolicy::SlottedStatic500) {
    if (!any_video || !any_tcp) {
      fail("SlottedStatic500 needs both TCP and UDP clients");
    }
    if (!(c.slotted_tcp_weight > 0.0 && c.slotted_tcp_weight < 1.0)) {
      fail("slotted_tcp_weight must be in (0, 1)");
    }
  }
  if (!(c.duration_s > 0)) fail("duration_s must be positive");
  if (c.video_start_s < 0) fail("video_start_s must be non-negative");
  if (c.video_spacing_s < 0) fail("video_spacing_s must be non-negative");
  if (!(c.cost_model_scale > 0)) fail("cost_model_scale must be positive");
  if (c.schedule_repeats < 1) fail("schedule_repeats must be >= 1");
  if (c.schedule_repeats > 1 &&
      c.schedule_repeat_spacing <= sim::Duration{}) {
    fail("schedule_repeat_spacing must be positive when repeating");
  }
  const auto check_web = [&](const char* what, bool ok) {
    if (!ok) fail(what);
  };
  check_web("web_pages must be positive", c.web_pages > 0);
  check_web("web_think_mean_s must be positive", c.web_think_mean_s > 0);
  check_web("ftp_bytes must be positive", c.ftp_bytes > 0);
  if (!c.channel.rungs.empty()) {
    if (!(c.channel.ewma_alpha > 0.0 && c.channel.ewma_alpha <= 1.0)) {
      fail("channel ewma_alpha must be in (0, 1]");
    }
    for (const auto& r : c.channel.rungs) {
      for (const double p : {r.p_up, r.p_down, r.loss}) {
        if (p < 0 || p > 1.0) {
          fail("channel rung probabilities must be in [0, 1]");
        }
      }
      if (r.p_up + r.p_down > 1.0) {
        fail("channel rung p_up + p_down must not exceed 1");
      }
      if (!(r.goodput_bps > 0)) fail("channel rung goodput must be positive");
    }
  }
  const sim::Time horizon = sim::Time::seconds(c.duration_s);
  for (const auto& w : c.fault.windows) {
    if (w.duration <= sim::Duration{}) {
      fail("fault window duration must be positive");
    }
    if (w.start < sim::Time{}) fail("fault window starts before t=0");
    if (w.end() > horizon) {
      fail("fault window outlives the horizon (the auditor requires every "
           "window to recover before end of run)");
    }
    const bool per_client = w.kind == fault::FaultKind::DeepFade ||
                            w.kind == fault::FaultKind::ClientChurn;
    const bool has_client = w.client != net::Ipv4Addr{};
    if (per_client && !has_client) {
      fail(std::string(fault::to_string(w.kind)) +
           " window needs a client address");
    }
    if (!per_client && has_client) {
      fail("only DeepFade and ClientChurn windows take a client address");
    }
  }
  const auto& storm = c.fault.storm;
  if (storm.enabled) {
    if (!(storm.flap_fraction > 0.0 && storm.flap_fraction <= 1.0)) {
      fail("churn storm flap_fraction must be in (0, 1]");
    }
    if (storm.duration <= sim::Duration{}) {
      fail("churn storm duration must be positive");
    }
    if (storm.start < sim::Time{}) fail("churn storm starts before t=0");
    if (storm.start + storm.duration > horizon) {
      fail("churn storm outlives the horizon");
    }
    if (storm.min_away <= sim::Duration{} || storm.min_home <= sim::Duration{}) {
      fail("churn storm min periods must be positive");
    }
    if (storm.max_away < storm.min_away || storm.max_home < storm.min_home) {
      fail("churn storm max periods must be >= their minimums");
    }
  }
  if (c.measured_goodput && (c.policy == IntervalPolicy::StaticEqual100 ||
                             c.policy == IntervalPolicy::SlottedStatic500)) {
    fail("measured_goodput needs a demand-driven policy (static schedules "
         "ignore per-client slot costs)");
  }
  return cfg_;
}

// -- Presets -----------------------------------------------------------------------

ScenarioBuilder ScenarioBuilder::fig4(std::vector<int> pattern,
                                      IntervalPolicy p) {
  return ScenarioBuilder{}
      .roles(std::move(pattern))
      .policy(p)
      .seed(42)
      .duration_s(140.0);
}

ScenarioBuilder ScenarioBuilder::fig5(std::vector<int> pattern,
                                      IntervalPolicy p) {
  return fig4(std::move(pattern), p);
}

ScenarioBuilder ScenarioBuilder::fig6() {
  // Stressed timing: heavier access-point jitter makes the early-transition
  // trade-off visible, as the paper's real access point did.
  return ScenarioBuilder{}
      .video(1, 0)
      .policy(IntervalPolicy::Fixed100)
      .seed(19)
      .duration_s(140.0)
      .keep_trace()
      .ap_jitter(0.08, sim::Time::ms(8))
      // The whole point of fig6 is the raw early-transition trade-off:
      // auto-deriving the guard would flatten the curve it plots.
      .jitter_guard(false);
}

ScenarioBuilder ScenarioBuilder::fig7(int fidelity, double tcp_weight) {
  // Nine video clients of one fidelity + one background web client
  // ("medium" background traffic).
  return ScenarioBuilder{}
      .video(9, fidelity)
      .web(1)
      .policy(IntervalPolicy::SlottedStatic500)
      .slotted_tcp_weight(tcp_weight)
      .web_think_mean_s(2.0)
      .seed(42)
      .duration_s(140.0);
}

ScenarioBuilder ScenarioBuilder::fault_battery(int clients, double duration_s,
                                               bool faulted) {
  ScenarioBuilder b = ScenarioBuilder{}
                          .video(clients, 1)  // 128K streams
                          .policy(IntervalPolicy::Fixed500)
                          .seed(42)
                          .duration_s(duration_s)
                          .wireless_p_loss(0.0);  // fades are the only loss
  if (faulted) {
    using sim::Time;
    // SRPs fire at 500 ms + k * 500 ms; blackout the broadcast instant for
    // client (k mod clients).  Stop early enough that every window closes
    // before the horizon (the auditor requires recovery by end of run).
    for (int k = 0;; ++k) {
      const Time srp = Time::ms(500 + 500 * k);
      if (srp.to_seconds() >= duration_s - 0.1) break;
      b.fault_spec().fade(testbed_client_ip(k % clients), srp - Time::ms(2),
                          Time::ms(10));
    }
    b.fault_spec().ap_stall(Time::seconds(duration_s / 2.0), Time::ms(800));
  }
  return b;
}

ScenarioBuilder ScenarioBuilder::degradation(double duration_s) {
  using sim::Time;
  ScenarioBuilder b = ScenarioBuilder{}
                          .video(2, 1)
                          .video(1, 2)
                          .web(1)
                          .policy(IntervalPolicy::Fixed500)
                          .seed(7)
                          .duration_s(duration_s)
                          .channel(channel::ChannelSpec::two_state(
                              /*p_good_bad=*/0.01, /*p_bad_good=*/0.02,
                              /*loss_good=*/0.001, /*loss_bad=*/0.9))
                          .keep_obs()
                          .schedule_repeats(2)
                          .miss_escalation();
  auto& f = b.fault_spec();
  f.fade(testbed_client_ip(0), Time::seconds(8.0), Time::ms(1800));
  f.ap_stall(Time::seconds(16.0), Time::ms(900));
  f.link_flap(Time::seconds(24.0), Time::ms(500));
  f.proxy_pause(Time::seconds(31.0), Time::ms(1200));
  return b;
}

namespace presets {

std::vector<std::pair<std::string, std::vector<int>>> fig4_patterns() {
  return {
      {"56K", std::vector<int>(10, 0)},
      {"256K", std::vector<int>(10, 2)},
      {"512K", std::vector<int>(10, 3)},
      {"56K_512K", {0, 0, 0, 0, 0, 3, 3, 3, 3, 3}},
      {"All", {0, 0, 0, 0, 0, 0, 1, 2, 2, 3}},
  };
}

std::vector<std::pair<std::string, std::vector<int>>> fig5_patterns() {
  auto mixed = [](std::vector<int> video) {
    video.insert(video.end(), {kRoleWeb, kRoleWeb, kRoleWeb});
    return video;
  };
  return {
      {"56K/TCP", mixed(std::vector<int>(7, 0))},
      {"256K/TCP", mixed(std::vector<int>(7, 2))},
      {"512K/TCP", mixed(std::vector<int>(7, 3))},
      {"All/TCP", mixed({0, 0, 1, 1, 2, 2, 3})},
  };
}

std::vector<std::pair<std::string, IntervalPolicy>> dynamic_intervals() {
  return {{"100ms", IntervalPolicy::Fixed100},
          {"500ms", IntervalPolicy::Fixed500},
          {"variable", IntervalPolicy::Variable}};
}

}  // namespace presets

}  // namespace pp::exp
