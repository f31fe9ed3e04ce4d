#include "exp/testbed.hpp"

#include <stdexcept>

#include "check/check.hpp"

namespace pp::exp {

net::Ipv4Addr testbed_client_ip(int i) {
  // 16-bit client index spread over the third and fourth octets: clients
  // 0..254 keep their historical 172.16.0.<i+1> addresses; larger fleets
  // spill into 172.16.1.x and beyond (65534 clients max per testbed).
  const std::uint32_t n = static_cast<std::uint32_t>(i) + 1;
  return net::Ipv4Addr::octets(172, 16, static_cast<std::uint8_t>(n >> 8),
                               static_cast<std::uint8_t>(n & 0xff));
}

namespace {

// Inverse of testbed_client_ip: the client index behind `ip`, or -1 when
// `ip` is not a client address.
int testbed_client_index(net::Ipv4Addr ip) {
  const int i = static_cast<int>(ip.raw() & 0xffffu) - 1;
  return i >= 0 && testbed_client_ip(i) == ip ? i : -1;
}

}  // namespace

Testbed::Testbed(TestbedParams params,
                 std::unique_ptr<proxy::Scheduler> scheduler)
    : params_{params},
      sim_{params.seed},
      lan_{sim_, params.lan},
      proxy_{std::make_unique<proxy::TransparentProxy>(
          sim_, std::move(scheduler), params.proxy)},
      medium_{sim_, params.wireless},
      ap_{sim_, medium_, params.ap} {
  // Bridge port: all LAN traffic to unknown (wireless) addresses lands here.
  // A buffering proxy reads its paced datagrams off the port's channel.
  bridge_port_ = lan_.attach_default(proxy_->wired_sink());
  if (params_.proxy.mode != proxy::ProxyMode::Passthrough)
    proxy_->set_ingress(&lan_.egress(bridge_port_));
  proxy_->set_wired_tx([this](net::Packet pkt) {
    lan_.send(bridge_port_, std::move(pkt));
  });

  // Proxy <-> AP point-to-point link.
  proxy_ap_link_ = std::make_unique<net::PointToPointLink>(
      sim_, params_.proxy_ap, proxy_->wireless_sink(), ap_);
  proxy_->set_wireless_tx([this](net::Packet pkt) {
    proxy_ap_link_->send_a_to_b(std::move(pkt));
  });
  proxy_->set_wireless_burst_tx([this](net::ChunkQueue burst) {
    proxy_ap_link_->send_burst_a_to_b(std::move(burst));
  });
  ap_uplink_sink_ = std::make_unique<net::ChannelSink>(
      proxy_ap_link_->b_to_a());
  ap_.set_uplink_sink(*ap_uplink_sink_);

  // Churn: expand a declared storm into concrete per-client windows now
  // that the fleet's addresses are known; the storm flag is consumed so
  // the FaultPlan only ever sees plain windows.
  if (params_.fault.storm.enabled) {
    std::vector<net::Ipv4Addr> fleet;
    fleet.reserve(static_cast<std::size_t>(params_.num_clients));
    for (int i = 0; i < params_.num_clients; ++i)
      fleet.push_back(testbed_client_ip(i));
    std::vector<fault::FaultWindow> storm_windows =
        fault::expand_churn_storm(params_.fault.storm, fleet, params_.seed);
    params_.fault.windows.insert(params_.fault.windows.end(),
                                 storm_windows.begin(), storm_windows.end());
    params_.fault.storm.enabled = false;
  }
  // Any churn window turns the association agents on fleet-wide: the
  // clients named by windows flap, the rest just run with the agent idle
  // in the Associated state.
  bool churny = false;
  for (const auto& w : params_.fault.windows)
    if (w.kind == fault::FaultKind::ClientChurn) churny = true;
  if (churny) {
    params_.client.assoc.enabled = true;
    params_.client.assoc.run_seed = params_.seed;
    params_.client.assoc.proxy_ip = params_.proxy.proxy_ip;
  }

  // Fault plan: wired to every faultable component; windows arm at start().
  if (params_.fault.any()) {
    fault_ = std::make_unique<fault::FaultPlan>(sim_, params_.fault);
    fault_->attach_medium(medium_);
    fault_->attach_access_point(ap_);
    fault_->attach_wired_link(proxy_ap_link_->a_to_b(),
                              proxy_ap_link_->b_to_a());
    fault_->set_proxy_pause([this](bool paused) {
      if (paused) {
        proxy_->pause();
      } else {
        proxy_->resume();
      }
    });
    // Churn coordinator: drive the client's association agent and keep the
    // AP's association table in step.  (clients_ fills later in this
    // constructor; the callback only fires at sim time, after start().)
    fault_->set_churn([this](net::Ipv4Addr ip, bool away) {
      const int i = testbed_client_index(ip);
      if (i >= 0 && i < num_clients()) clients_[i]->set_away(away);
      if (away) {
        ap_.disassociate(ip);
      } else {
        ap_.associate(ip);
      }
    });
  }

  // Wireless loss, installed before the clients attach so each resolves its
  // row once.  Only a ladder's quality is worth observing at the proxy.
  // A deep fade window overrides it on the medium.
  if (!params_.channel.rungs.empty()) {
    channel_ = std::make_unique<channel::ChannelModel>(params_.channel,
                                                       params_.seed);
    medium_.set_loss_model(channel_.get());
    if (params_.channel.num_states() > 1)
      proxy_->set_channel_observer(channel_.get());
  }

  // Clients.  Energy state lives in the shared fleet ledger (one SoA row
  // per client) instead of per-object accountants.
  energy_ledger_ = energy::EnergyLedger{params_.client.power};
  energy_ledger_.reserve(params_.num_clients);
  clients_.reserve(params_.num_clients);
  for (int i = 0; i < params_.num_clients; ++i) {
    clients_.push_back(std::make_unique<client::EnergyAwareClient>(
        sim_, medium_, energy_ledger_, testbed_client_ip(i),
        "client" + std::to_string(i), params_.client));
  }

#if PP_OBS_ENABLED
  // The registry always exists, so publish_metrics has somewhere to write
  // the counters; the live streams are attached only on request.
  observer_ = std::make_shared<obs::Observer>();
  if (params_.observe) {
    const obs::Hook hook = observer_->hook();
    medium_.set_obs(hook);
    ap_.set_obs(hook);
    proxy_->set_obs(hook);
    if (fault_) fault_->set_obs(hook);
    if (params_.per_client_obs)
      for (auto& c : clients_) c->set_obs(hook);
  }
#endif
}

trace::MonitoringStation& Testbed::monitor() {
  if (!monitor_) monitor_.emplace(medium_);
  return *monitor_;
}

net::Node& Testbed::add_server(const std::string& name) {
  if (started_) throw std::logic_error("Testbed: add_server after start");
  const auto ip =
      net::Ipv4Addr::octets(10, 0, 0, static_cast<std::uint8_t>(next_server_++));
  auto node = std::make_unique<net::Node>(sim_, ip, name);
  const auto port = lan_.attach(*node, ip);
  net::Node* raw = node.get();
  raw->set_transmitter([this, port](net::Packet pkt) {
    lan_.send(port, std::move(pkt));
  });
  servers_.push_back(std::move(node));
  return *raw;
}

std::vector<net::Ipv4Addr> Testbed::client_ips() const {
  std::vector<net::Ipv4Addr> ips;
  ips.reserve(clients_.size());
  for (const auto& c : clients_) ips.push_back(c->ip());
  return ips;
}

void Testbed::run_until(sim::Time t) {
  sim_.run_until(t);
  proxy_->settle(t);
}

void Testbed::finalize_audit() {
  proxy_->finish();
  publish_metrics();
  ap_.audit();
  proxy_->audit();
  for (std::size_t i = 0; i < clients_.size(); ++i) {
    const energy::EnergyAccountant& acc = clients_[i]->accountant();
    if (acc.balanced(sim_.now())) continue;
    // Name the client only on the failing path.  Safe to pass c_str(): a
    // violation never returns here (abort/throw).
    const std::string component =
        "energy.accountant.client" + std::to_string(i);
    acc.audit(sim_.now(), component.c_str());
  }
  if (fault_) fault_->audit();
}

void Testbed::publish_metrics() {
  if (metrics_published_) return;
  metrics_published_ = true;
  auto* m = metrics();
  if (m == nullptr) return;
  // Engine meta-counters.  The "sim." prefix is load-bearing: replay
  // digests skip it (see exp/digest.cpp), so these can move with engine
  // tuning without perturbing behavioral fingerprints.
  const sim::EventQueue::Stats& qs = sim_.queue_stats();
  m->counter("sim.events.scheduled")->inc(qs.scheduled);
  m->counter("sim.events.fired")->inc(qs.fired);
  m->counter("sim.events.cancelled")->inc(qs.cancelled);
  m->counter("sim.events.stale_pruned")->inc(qs.stale_pruned);
  m->counter("sim.events.slab_slots")
      ->inc(static_cast<std::uint64_t>(sim_.queue_slab_slots()));
  // Component counters, each from the component's own stats.
  medium_.publish(*m);
  ap_.publish(*m);
  proxy_->publish(*m);
  if (fault_) fault_->publish(*m);
  if (channel_) channel_->publish(*m);
  if (params_.per_client_obs)
    for (const auto& c : clients_) c->publish(*m);
}

void Testbed::start(sim::Time first_srp) {
  PP_CHECK(!started_, "exp.testbed.start");
  started_ = true;
  proxy_->calibrate(medium_);
  for (const auto& ip : client_ips()) proxy_->register_client(ip);
  if (fault_) fault_->arm();
  proxy_->start(first_srp);
  for (auto& c : clients_) c->start();
}

}  // namespace pp::exp
