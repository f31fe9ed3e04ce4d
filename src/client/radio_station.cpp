#include "client/radio_station.hpp"

#include <utility>

namespace pp::client {

RadioStation::RadioStation(sim::Simulator& sim, net::WirelessMedium& medium,
                           energy::EnergyLedger& ledger, net::Ipv4Addr ip,
                           std::string name)
    : sim_{sim},
      node_{sim, ip, std::move(name)},
      acc_{ledger, sim.now(), energy::WnicMode::Idle},
      start_time_{sim.now()},
      medium_{medium},
      station_id_{medium.attach_station(*this, ip)} {}

void RadioStation::charge_receive(sim::Duration airtime) {
  acc_.add_transient(energy::WnicMode::Receive, airtime);
  traffic_.receive_airtime += airtime;
}

void RadioStation::missed(const net::Packet& pkt, sim::Duration airtime) {
  traffic_.missed_airtime += airtime;
  if (pkt.is_broadcast()) {
    ++traffic_.broadcasts_missed;
  } else {
    ++traffic_.packets_missed;
  }
}

void RadioStation::on_air(sim::Time /*start*/, sim::Duration dur) {
  acc_.add_transient(energy::WnicMode::Transmit, dur);
  traffic_.transmit_airtime += dur;
}

double RadioStation::naive_energy_mj(sim::Time now) const {
  return energy::naive_energy_mj(
      acc_.model(), now - start_time_,
      traffic_.receive_airtime + traffic_.missed_airtime,
      traffic_.transmit_airtime);
}

double RadioStation::energy_saved_fraction(sim::Time now) const {
  return energy::saved_fraction(energy_mj(now), naive_energy_mj(now));
}

double RadioStation::loss_fraction() const {
  const double total = static_cast<double>(traffic_.packets_received +
                                           traffic_.packets_missed);
  if (total <= 0) return 0;
  return static_cast<double>(traffic_.packets_missed) / total;
}

}  // namespace pp::client
