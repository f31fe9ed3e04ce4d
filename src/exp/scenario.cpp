#include "exp/scenario.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>

#include "proxy/policies.hpp"
#include "workload/ftp.hpp"
#include "workload/video.hpp"
#include "workload/web.hpp"

namespace pp::exp {

std::string role_name(int role) {
  if (role == kRoleWeb) return "TCP/web";
  if (role == kRoleFtp) return "TCP/ftp";
  if (role == kRoleIdle) return "idle";
  return std::to_string(workload::kFidelities[role].nominal_kbps) + "K";
}

std::string policy_name(IntervalPolicy p) {
  switch (p) {
    case IntervalPolicy::Fixed100: return "100ms";
    case IntervalPolicy::Fixed500: return "500ms";
    case IntervalPolicy::Variable: return "variable";
    case IntervalPolicy::StaticEqual100: return "static-100ms";
    case IntervalPolicy::SlottedStatic500: return "slotted-500ms";
    case IntervalPolicy::LongestQueue500: return "lqf-500ms";
    case IntervalPolicy::Opportunistic500: return "opportunistic-500ms";
    case IntervalPolicy::Probabilistic500: return "probabilistic-500ms";
  }
  return "?";
}

namespace {

std::unique_ptr<proxy::Scheduler> make_scheduler(const ScenarioConfig& cfg) {
  std::vector<net::Ipv4Addr> all, udp, tcp;
  all.reserve(cfg.roles.size());
  udp.reserve(cfg.roles.size());
  tcp.reserve(cfg.roles.size());
  for (std::size_t i = 0; i < cfg.roles.size(); ++i) {
    const auto ip = testbed_client_ip(static_cast<int>(i));
    all.push_back(ip);
    // Idle clients receive UDP (backbone cross-traffic) when anything
    // reaches them at all, so the slotted layout treats them as UDP.
    const bool udp_side = is_video_role(cfg.roles[i]) ||
                          cfg.roles[i] == kRoleIdle;
    (udp_side ? udp : tcp).push_back(ip);
  }
  std::unique_ptr<proxy::Scheduler> s = [&]() -> std::unique_ptr<proxy::Scheduler> {
  switch (cfg.policy) {
    case IntervalPolicy::Fixed100:
      return std::make_unique<proxy::FixedIntervalScheduler>(
          sim::Time::ms(100));
    case IntervalPolicy::Fixed500:
      return std::make_unique<proxy::FixedIntervalScheduler>(
          sim::Time::ms(500));
    case IntervalPolicy::Variable:
      return std::make_unique<proxy::VariableIntervalScheduler>();
    case IntervalPolicy::StaticEqual100:
      return std::make_unique<proxy::StaticScheduler>(sim::Time::ms(100),
                                                      std::move(all));
    case IntervalPolicy::SlottedStatic500:
      if (tcp.empty() || udp.empty())
        throw std::invalid_argument(
            "SlottedStatic500 needs both TCP and UDP clients");
      return std::make_unique<proxy::SlottedStaticScheduler>(
          sim::Time::ms(500), cfg.slotted_tcp_weight, std::move(udp),
          std::move(tcp));
    case IntervalPolicy::LongestQueue500:
      return std::make_unique<proxy::LongestQueueFirstScheduler>(
          sim::Time::ms(500));
    case IntervalPolicy::Opportunistic500:
      return std::make_unique<proxy::ChannelAwareOpportunisticScheduler>(
          sim::Time::ms(500), 3);
    case IntervalPolicy::Probabilistic500:
      return std::make_unique<proxy::BufferAwareProbabilisticScheduler>(
          sim::Time::ms(500), cfg.seed);
  }
  throw std::logic_error("unknown policy");
  }();
  // Goodput widening composes with every demand-driven policy; the builder
  // rejects it for the static schedules, which ignore per-client costs.
  s->set_measured_goodput(cfg.measured_goodput);
  return s;
}

}  // namespace

// Servers and per-client workload applications, owned for the lifetime of
// the run.  Declaration order matters: apps hold sockets on server nodes
// owned by the Testbed, which outlives this struct.
struct ScenarioRun::Apps {
  workload::VideoServerParams vsp;
  std::unique_ptr<workload::VideoServer> video_server;
  std::unique_ptr<workload::HttpServer> http_server;
  std::unique_ptr<workload::FtpServer> ftp_server;
  // One app per client of the role, in client order.
  std::vector<std::unique_ptr<workload::VideoClient>> video_apps;
  std::vector<std::unique_ptr<workload::WebBrowsingClient>> web_apps;
  std::vector<std::unique_ptr<workload::FtpClient>> ftp_apps;
};

// pp-lint: allow(hot-path-alloc): construction-time hook, runs once per cell
ScenarioRun::ScenarioRun(const ScenarioConfig& cfg,
                         const std::function<void(Testbed&)>& pre_start)
    : cfg_{cfg} {
  TestbedParams tp;
  tp.seed = cfg.seed;
  tp.num_clients = static_cast<int>(cfg.roles.size());
  tp.ap = cfg.ap;
  tp.client.daemon.comp.mode = cfg.compensation;
  // Worst case between consecutive broadcasts: previous one maximally
  // jittered + spiked, next one not jittered at all.  Spikes only count
  // when they can occur.
  if (cfg.jitter_guard)
    tp.client.daemon.comp.jitter_bound =
        tp.ap.jitter_max +
        (tp.ap.p_spike > 0 ? tp.ap.spike_max : sim::Time::zero());
  tp.client.daemon.sleep_at_slot_end =
      cfg.policy == IntervalPolicy::SlottedStatic500;
  tp.client.daemon.honor_reuse = cfg.honor_reuse;
  tp.client.naive = cfg.naive_clients;
  tp.client.daemon.escalation.enabled = cfg.miss_escalation;
  tp.observe = cfg.keep_obs;
  tp.per_client_obs = cfg.per_client_obs;
  tp.proxy.mode = cfg.proxy_mode;
  tp.proxy.cost_model_scale = cfg.cost_model_scale;
  tp.proxy.schedule_repeats = cfg.schedule_repeats;
  tp.proxy.repeat_spacing = cfg.schedule_repeat_spacing;
  tp.fault = cfg.fault;
  tp.channel = cfg.channel;

  bed_ = std::make_unique<Testbed>(tp, make_scheduler(cfg));
  Testbed& bed = *bed_;
  // The sniffer costs a trace record per frame; attach it only when asked.
  if (cfg.keep_trace) bed.monitor();
  apps_ = std::make_unique<Apps>();
  Apps& a = *apps_;

  // Servers: one multimedia server and one web/ftp server, as in the paper.
  net::Node& video_node = bed.add_server("realserver");
  net::Node& web_node = bed.add_server("webserver");

  a.vsp.adaptive = cfg.video_adaptive;
  a.vsp.trace_seed = cfg.seed * 7919 + 13;
  a.video_server = std::make_unique<workload::VideoServer>(video_node, a.vsp);
  if (net::Channel* ingress = bed.paced_ingress())
    a.video_server->pace_into(*ingress);
  a.http_server = std::make_unique<workload::HttpServer>(web_node);
  a.ftp_server = std::make_unique<workload::FtpServer>(web_node);

  // Reserve exact per-role counts: at fleet scale most clients are idle,
  // so a roles.size() upper bound would overshoot by orders of magnitude.
  {
    std::size_t n_video = 0, n_web = 0, n_ftp = 0;
    for (const int r : cfg.roles) {
      if (is_video_role(r)) ++n_video;
      else if (r == kRoleWeb) ++n_web;
      else if (r == kRoleFtp) ++n_ftp;
    }
    a.video_apps.reserve(n_video);
    a.web_apps.reserve(n_web);
    a.ftp_apps.reserve(n_ftp);
  }

  int video_order = 0;
  for (std::size_t i = 0; i < cfg.roles.size(); ++i) {
    auto& cl = bed.client(static_cast<int>(i));
    const int role = cfg.roles[i];
    if (is_video_role(role)) {
      a.video_server->expect_client(cl.ip(), role);
      auto app = std::make_unique<workload::VideoClient>(cl.node(),
                                                         video_node.ip());
      // Requests spaced roughly one second apart to spread traffic.
      app->play(sim::Time::seconds(cfg.video_start_s +
                                   video_order * cfg.video_spacing_s));
      ++video_order;
      a.video_apps.push_back(std::move(app));
    } else if (role == kRoleWeb) {
      workload::WebScriptParams wsp;
      wsp.pages = cfg.web_pages;
      wsp.think_mean_s = cfg.web_think_mean_s;
      auto script = workload::generate_web_script(cfg.seed * 131 + i, wsp);
      a.http_server->add_script(cl.ip(), script);
      auto app = std::make_unique<workload::WebBrowsingClient>(
          cl.node(), web_node.ip(), std::move(script));
      app->start(sim::Time::seconds(1.0 + 0.3 * static_cast<double>(i)));
      a.web_apps.push_back(std::move(app));
    } else if (role == kRoleFtp) {
      a.ftp_server->add_file(cl.ip(), cfg.ftp_bytes);
      auto app = std::make_unique<workload::FtpClient>(cl.node(),
                                                       web_node.ip());
      app->download(sim::Time::seconds(3.0 + 0.5 * static_cast<double>(i)));
      a.ftp_apps.push_back(std::move(app));
    } else if (role == kRoleIdle) {
      // Associated and power-managed, no application: downlink traffic (if
      // any) arrives from elsewhere — the multi-cell backbone, typically.
    } else {
      throw std::invalid_argument("bad role");
    }
  }

  if (pre_start) pre_start(bed);
  bed.start(sim::Time::ms(500));
}

ScenarioRun::~ScenarioRun() = default;

ScenarioResult ScenarioRun::finish() {
  Testbed& bed = *bed_;
  Apps& a = *apps_;
  const sim::Time horizon = this->horizon();

  bed.finalize_audit();
  bed.metrics()->finalize(horizon);

  ScenarioResult res;
  res.horizon = horizon;
  res.proxy_stats = bed.proxy().stats();
  res.ap_drops = bed.access_point().downlink_dropped();
  res.frames_on_air = bed.medium().frames_sent();
  if (auto* fp = bed.fault_plan()) res.fault_stats = fp->stats();
  res.clients.reserve(cfg_.roles.size());
  // Apps were pushed in client order, so one cursor per app vector walks
  // each role's clients in step with i.
  auto video = a.video_apps.begin();
  auto web = a.web_apps.begin();
  auto ftp = a.ftp_apps.begin();
  for (std::size_t i = 0; i < cfg_.roles.size(); ++i) {
    auto& cl = bed.client(static_cast<int>(i));
    ClientResult r;
    r.ip = cl.ip();
    r.role = cfg_.roles[i];
    r.saved_pct = 100.0 * cl.energy_saved_fraction(horizon);
    r.energy_mj = cl.energy_mj(horizon);
    r.naive_mj = cl.naive_energy_mj(horizon);
    r.loss_pct = 100.0 * cl.loss_fraction();
    r.packets_received = cl.traffic().packets_received;
    r.packets_missed = cl.traffic().packets_missed;
    r.bytes_received = cl.traffic().bytes_received;
    r.delay_samples = cl.traffic().delay_samples;
    r.mean_delay_ms = r.delay_samples > 0
                          ? cl.traffic().delay_sum.to_ms() /
                                static_cast<double>(r.delay_samples)
                          : 0;
    r.schedules_received = cl.daemon_stats().schedules_received;
    r.schedules_missed = cl.daemon_stats().schedules_missed;
    r.sleeps = cl.daemon_stats().sleeps;
    r.first_misses = cl.daemon_stats().first_misses;
    r.repeat_misses = cl.daemon_stats().repeat_misses;
    r.escalated_sleeps = cl.daemon_stats().escalated_sleeps;
    r.resyncs = cl.daemon_stats().resyncs;
    r.repeats_deduped = cl.daemon_stats().repeats_deduped;
    r.coast_breaks = cl.daemon_stats().coast_breaks;
    if (const auto* ag = cl.assoc()) {
      r.assoc_joins = ag->stats().joins_sent;
      r.assoc_leaves = ag->stats().leaves_sent;
      r.assoc_retries = ag->stats().join_retries + ag->stats().leave_retries;
    }
    if (is_video_role(r.role)) {
      const auto& v = *video++;
      r.app_loss_pct = 100.0 * v->loss_fraction();
      r.video_fidelity_final = v->stats().fidelity_seen;
      r.app_bytes = v->stats().bytes;
    } else if (r.role == kRoleWeb) {
      const auto& w = *web++;
      r.pages_completed = w->stats().pages_completed;
      r.page_time_ms = w->stats().pages_completed > 0
                           ? w->stats().total_page_time.to_ms() /
                                 w->stats().pages_completed
                           : 0;
      r.app_bytes = w->stats().bytes_received;
    } else if (r.role == kRoleFtp) {
      const auto& f = *ftp++;
      r.ftp_seconds = f->stats().finished ? f->stats().transfer_seconds() : -1;
      r.app_bytes = f->stats().bytes_received;
    }
    res.clients.push_back(r);
  }
  if (cfg_.keep_trace) res.trace = bed.monitor().take();
  if (cfg_.keep_obs) res.obs = bed.observer();
  return res;
}

ScenarioResult run_scenario(const ScenarioConfig& cfg) {
  ScenarioRun run{cfg};
  run.advance(run.horizon());
  return run.finish();
}

Summary summarize_all(const std::vector<ClientResult>& clients) {
  return summarize_saved(clients, [](const ClientResult&) { return true; });
}

Summary summarize_video(const std::vector<ClientResult>& clients) {
  return summarize_saved(
      clients, [](const ClientResult& c) { return is_video_role(c.role); });
}

Summary summarize_tcp(const std::vector<ClientResult>& clients) {
  return summarize_saved(
      clients, [](const ClientResult& c) { return !is_video_role(c.role); });
}

double average_loss_pct(const std::vector<ClientResult>& clients) {
  if (clients.empty()) return 0;
  double s = 0;
  for (const auto& c : clients) s += c.loss_pct;
  return s / static_cast<double>(clients.size());
}

}  // namespace pp::exp
