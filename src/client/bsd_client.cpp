#include "client/bsd_client.hpp"

#include <algorithm>
#include <utility>

namespace pp::client {

BsdClient::BsdClient(sim::Simulator& sim, net::WirelessMedium& medium,
                     energy::EnergyLedger& ledger, net::Ipv4Addr ip,
                     std::string name, BsdParams params)
    : RadioStation{sim, medium, ledger, ip, std::move(name)},
      params_{params} {
  node().set_transmitter([this](net::Packet pkt) {
    if (is_request(pkt)) enter_awake_window();
    if (!awake_) wake();
    transmit(std::move(pkt));
  });
}

void BsdClient::wake() {
  awake_ = true;
  set_wnic_mode(energy::WnicMode::Idle);
}

void BsdClient::enter_awake_window() {
  // Fresh request: listen continuously; reset the skip ladder.
  skip_ = 1;
  window_until_ = sim_.now() + params_.awake_window;
  wake();
  wake_timer_.cancel();
  window_timer_.cancel();
  window_timer_ = sim_.at(window_until_, [this] {
    // Window over: fall back to beacon-skipping sleep.
    if (sim_.now() >= window_until_) doze_for_skip();
  });
}

void BsdClient::doze_for_skip() {
  wake_timer_.cancel();
  const sim::Time t = last_beacon_arrival_ +
                      beacon_interval_ * skip_ - params_.early;
  const sim::Time now = sim_.now();
  const sim::Time target = std::max(t, now);
  if (target - now > params_.min_sleep) {
    awake_ = false;
    set_wnic_mode(energy::WnicMode::Sleep);
  }
  wake_timer_ = sim_.at(target, [this] { wake(); });
}

void BsdClient::on_beacon(const net::BeaconMessage& b) {
  last_beacon_arrival_ = sim_.now();
  beacon_interval_ = b.beacon_interval;
  if (b.indicates(ip())) {
    draining_ = true;  // stay up for the parked frames
    return;
  }
  if (sim_.now() < window_until_) return;  // inside the awake window
  // Nothing for us: grow the skip ladder (bounding the added latency) and
  // doze until the k-th next beacon.
  skip_ = std::min(skip_ * 2, params_.max_beacon_skip);
  doze_for_skip();
}

void BsdClient::deliver(net::Packet pkt, sim::Duration airtime) {
  charge_receive(airtime);
  if (pkt.is_broadcast() && pkt.dst_port == net::kBeaconPort) {
    if (const auto* b = pkt.message<net::BeaconMessage>()) {
      on_beacon(*b);
    }
    return;
  }
  count_data(pkt);
  const bool marked = pkt.marked;
  node().handle_packet(std::move(pkt));
  // Traffic resets the ladder: more may follow soon.
  skip_ = 1;
  if (draining_ && marked) {
    draining_ = false;
    if (sim_.now() >= window_until_) doze_for_skip();
  }
}

}  // namespace pp::client
