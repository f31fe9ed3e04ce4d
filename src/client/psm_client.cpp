#include "client/psm_client.hpp"

#include <utility>

namespace pp::client {

PsmClient::PsmClient(sim::Simulator& sim, net::WirelessMedium& medium,
                     energy::EnergyLedger& ledger, net::Ipv4Addr ip,
                     std::string name, PsmParams params)
    : RadioStation{sim, medium, ledger, ip, std::move(name)},
      params_{params} {
  node().set_transmitter([this](net::Packet pkt) {
    if (!awake_) wake();
    hold_until_ = sim_.now() + params_.activity_hold;
    transmit(std::move(pkt));
    sim::Time base = channel_busy_until();
    if (base + params_.activity_hold > hold_until_)
      hold_until_ = base + params_.activity_hold;
  });
}

void PsmClient::wake() {
  awake_ = true;
  set_wnic_mode(energy::WnicMode::Idle);
}

void PsmClient::doze_until(sim::Time t) {
  wake_timer_.cancel();
  sim::Time now = sim_.now();
  if (t < now) t = now;
  if (now < hold_until_) {
    // Uplink activity in flight: re-evaluate when the hold expires.
    wake_timer_ = sim_.at(std::max(hold_until_, now),
                          [this, t] { doze_until(t); });
    return;
  }
  if (t - now > params_.min_sleep) {
    awake_ = false;
    set_wnic_mode(energy::WnicMode::Sleep);
  }
  // If the beacon never shows, the radio stays awake until one does.
  wake_timer_ = sim_.at(t, [this] { wake(); });
}

void PsmClient::on_beacon(const net::BeaconMessage& b) {
  ++beacons_received_;
  last_beacon_arrival_ = sim_.now();
  beacon_interval_ = b.beacon_interval;
  if (b.indicates(ip())) {
    draining_ = true;  // stay awake until the final buffered frame
    return;
  }
  draining_ = false;
  doze_until(last_beacon_arrival_ + beacon_interval_ - params_.early);
}

void PsmClient::deliver(net::Packet pkt, sim::Duration airtime) {
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
  if (draining_ && marked) {
    draining_ = false;
    doze_until(last_beacon_arrival_ + beacon_interval_ - params_.early);
  }
}

}  // namespace pp::client
