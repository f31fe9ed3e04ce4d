// Experiment testbed: the full topology of Figure 1.
//
//   servers --- 100 Mbps Ethernet --- [transparent proxy] --- access point
//                                                                  |
//                                       shared 11 Mbps wireless medium
//                                          |        |          |
//                                       client1  client2 ... monitoring
//                                                             station
//
// The proxy is the LAN's default (bridge) port, so all traffic destined to
// wireless clients flows through it, and a point-to-point link joins it to
// the access point.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "channel/model.hpp"
#include "client/energy_client.hpp"
#include "fault/plan.hpp"
#include "net/access_point.hpp"
#include "net/link.hpp"
#include "net/node.hpp"
#include "net/wireless.hpp"
#include "obs/observer.hpp"
#include "proxy/scheduler.hpp"
#include "proxy/transparent_proxy.hpp"
#include "sim/simulator.hpp"
#include "trace/monitor.hpp"

namespace pp::exp {

struct TestbedParams {
  std::uint64_t seed = 1;
  int num_clients = 10;
  net::WiredParams lan{};          // 100 Mbps Fast Ethernet
  net::WiredParams proxy_ap{};     // proxy <-> AP link
  net::WirelessParams wireless{};  // shared 11 Mbps medium
  net::AccessPointParams ap{};
  client::ClientParams client{};
  proxy::ProxyParams proxy{};
  // Fault-injection plan (see src/fault/).  When any() is true a FaultPlan
  // is constructed from the run seed and wired to the medium, AP, the
  // proxy <-> AP link, and the proxy's pause control; arm() runs at start().
  fault::FaultSpec fault{};
  // Wireless loss (see src/channel/): rungs install a ChannelModel on the
  // medium, and a ladder's per-client state reaches the proxy at each SRP.
  // No rungs (the default) = lossless.  Deep fades in `fault` override it.
  channel::ChannelSpec channel{};
  // Attach a MetricsRegistry + Timeline to every component.  Disable to
  // run with all instrumentation hooks detached (near-zero overhead; see
  // bench/micro_obs_overhead.cpp for the compile-time-off path).
  bool observe = true;
  // Attach the observer hook to every individual client (awake time-gauge
  // per client, per-client timeline events).  At 100k clients that is the
  // dominant observability cost, so scale runs disable it and keep the
  // cell-level streams (proxy, AP, medium) only.  No effect when
  // `observe` is false.
  bool per_client_obs = true;
};

class Testbed {
 public:
  Testbed(TestbedParams params, std::unique_ptr<proxy::Scheduler> scheduler);

  Testbed(const Testbed&) = delete;
  Testbed& operator=(const Testbed&) = delete;

  // -- Topology access ------------------------------------------------------------
  sim::Simulator& sim() { return sim_; }
  net::WirelessMedium& medium() { return medium_; }
  proxy::TransparentProxy& proxy() { return *proxy_; }
  // The monitoring station, attached to the medium on first call: it
  // records only the frames sent from then on, so call it before running
  // when the trace is wanted.
  trace::MonitoringStation& monitor();
  net::AccessPoint& access_point() { return ap_; }
  // The fleet's energy ledger.  Stations built outside the testbed (the
  // PSM and BSD baselines) open their rows here too; they must be
  // destroyed before the testbed.
  energy::EnergyLedger& energy_ledger() { return energy_ledger_; }

  // The unified observer (null when params.observe is false or the build
  // defines PP_OBS_DISABLED).  Shared so results can outlive the testbed.
  std::shared_ptr<obs::Observer> observer() { return observer_; }
  obs::MetricsRegistry* metrics() {
    return observer_ ? &observer_->metrics : nullptr;
  }
  obs::Timeline* timeline() {
    return observer_ ? &observer_->timeline : nullptr;
  }

  // Add a wired server (10.0.0.<n>).  Must precede start().
  net::Node& add_server(const std::string& name);

  int num_clients() const { return static_cast<int>(clients_.size()); }
  client::EnergyAwareClient& client(int i) { return *clients_.at(i); }
  net::Ipv4Addr client_ip(int i) const { return clients_.at(i)->ip(); }
  std::vector<net::Ipv4Addr> client_ips() const;

  // Calibrate the proxy's cost model, start the schedule loop at
  // `first_srp`, and start every client daemon.
  void start(sim::Time first_srp = sim::Time::ms(500));

  // Run every event through `t`, then settle the proxy's ingress through
  // `t`, so proxy queries are exact.
  void run_until(sim::Time t);

  // The LAN channel into the proxy's bridge port when the proxy buffers
  // the downlink, null in Passthrough mode (it forwards at arrival).  A
  // server whose sends are known ahead paces them into it, e.g.
  // workload::VideoServer::pace_into.
  net::Channel* paced_ingress() { return proxy_->ingress(); }

  // Finish the proxy (settle its ingress, write its pending Drop records),
  // then run every component's invariant audit (see src/check/): AP and
  // proxy packet/byte conservation, per-client energy accounting, and no
  // fault window left open.  Call at the end of a run; aborts (or throws
  // under a test handler) on the first violation.
  void finalize_audit();

  // Write every counter into the metrics registry, once, from the
  // components' own stats: the engine's sim.events.*, the medium, AP,
  // proxy (with its scheduler and splices), fault plan, channel model, and
  // (under per_client_obs) every client.  No-op when not observing;
  // idempotent.  Called by finalize_audit; exposed for drivers that skip
  // the audit.
  void publish_metrics();

  // The fault plan (null when params.fault is empty).
  fault::FaultPlan* fault_plan() { return fault_.get(); }
  // The channel model (null when params.channel has no rungs).
  channel::ChannelModel* channel_model() { return channel_.get(); }

 private:
  TestbedParams params_;
  sim::Simulator sim_;
  net::EthernetLan lan_;
  std::unique_ptr<proxy::TransparentProxy> proxy_;
  net::EthernetLan::PortId bridge_port_;
  net::WirelessMedium medium_;
  net::AccessPoint ap_;
  std::unique_ptr<net::PointToPointLink> proxy_ap_link_;
  std::unique_ptr<net::ChannelSink> ap_uplink_sink_;
  std::optional<trace::MonitoringStation> monitor_;
  std::unique_ptr<fault::FaultPlan> fault_;
  std::unique_ptr<channel::ChannelModel> channel_;
  std::shared_ptr<obs::Observer> observer_;
  // Fleet-wide flat energy state; every client's accountant is a row
  // handle into this ledger.  Must outlive clients_ (declared before it).
  energy::EnergyLedger energy_ledger_;
  std::vector<std::unique_ptr<client::EnergyAwareClient>> clients_;
  std::vector<std::unique_ptr<net::Node>> servers_;
  int next_server_ = 1;
  bool started_ = false;
  bool metrics_published_ = false;
};

// Client address helper: 16-bit index over the low two octets —
// 172.16.<(i+1)>>8>.<(i+1)&0xff>; the first 255 clients keep the
// historical 172.16.0.<i+1> form.
net::Ipv4Addr testbed_client_ip(int i);

}  // namespace pp::exp
