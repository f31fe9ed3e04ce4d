// The radio half of every mobile client: the station's node, its row in
// the testbed's energy ledger, the traffic counters, and the accounting
// that turns them into the paper's metrics (energy saved against a naive
// client whose WNIC never sleeps, and the fraction of packets missed).
//
// EnergyAwareClient (proxy schedules), PsmClient (802.11 PSM) and
// BsdClient (Bounded Slowdown) derive from it and keep only their power
// policy: listening(), the control frames they act on in deliver(), and
// their rule for waking on uplink.  Because all three share this one
// accounting path, their energy numbers are directly comparable.
#pragma once

#include <cstdint>
#include <string>
#include <utility>

#include "energy/wnic.hpp"
#include "net/node.hpp"
#include "net/wireless.hpp"
#include "sim/simulator.hpp"

namespace pp::client {

struct ClientTraffic {
  std::uint64_t packets_received = 0;
  std::uint64_t packets_missed = 0;  // addressed to us while asleep/corrupt
  std::uint64_t bytes_received = 0;
  std::uint64_t broadcasts_missed = 0;
  sim::Duration receive_airtime;
  sim::Duration missed_airtime;
  sim::Duration transmit_airtime;
  // Downlink UDP datagram delay (origin send to client delivery), data
  // plane only — schedule broadcasts and burst markers excluded.
  sim::Duration delay_sum;
  std::uint64_t delay_samples = 0;
};

class RadioStation : public net::WirelessStation {
 public:
  RadioStation(const RadioStation&) = delete;
  RadioStation& operator=(const RadioStation&) = delete;

  net::Node& node() { return node_; }
  net::Ipv4Addr ip() const { return node_.ip(); }
  const ClientTraffic& traffic() const { return traffic_; }
  const energy::EnergyAccountant& accountant() const { return acc_; }

  // -- Energy results ------------------------------------------------------------
  double energy_mj(sim::Time now) const { return acc_.energy_mj(now); }
  // What a naive client would have used over the same trace: always idle,
  // receiving every frame addressed to it (including the ones we missed).
  double naive_energy_mj(sim::Time now) const;
  // 1 - energy/naive: the paper's headline metric.
  double energy_saved_fraction(sim::Time now) const;
  // Fraction of addressed packets missed.
  double loss_fraction() const;

  // -- net::WirelessStation --------------------------------------------------------
  void missed(const net::Packet& pkt, sim::Duration airtime) final;
  void on_air(sim::Time start, sim::Duration dur) final;

 protected:
  // Attaches the station to `medium` and opens its row in `ledger`, which
  // must outlive it.  The radio starts idle (listening).
  RadioStation(sim::Simulator& sim, net::WirelessMedium& medium,
               energy::EnergyLedger& ledger, net::Ipv4Addr ip,
               std::string name);

  // An uplink frame that starts an exchange (TCP SYN, FIN or data), as
  // opposed to a pure ACK: the response it asks for should be heard.
  static bool is_request(const net::Packet& pkt) {
    return pkt.proto == net::Protocol::Tcp &&
           (pkt.tcp.syn || pkt.tcp.fin || pkt.payload > 0);
  }
  // Queue an uplink frame on the medium.  Its transmit airtime comes back
  // through on_air().
  void transmit(net::Packet pkt) {
    medium_.transmit(station_id_, std::move(pkt));
  }
  // Time the channel becomes free (>= now when busy).
  sim::Time channel_busy_until() const { return medium_.busy_until(); }
  // Move the WNIC to `m` now (Idle = awake, Sleep = dozing).
  void set_wnic_mode(energy::WnicMode m) { acc_.set_mode(sim_.now(), m); }
  // Charge a received frame's airtime, control plane or data.
  void charge_receive(sim::Duration airtime);
  // Count a received data packet (control frames are charged, not counted).
  void count_data(const net::Packet& pkt) {
    ++traffic_.packets_received;
    traffic_.bytes_received += pkt.payload;
  }
  void count_delay(sim::Duration d) {
    traffic_.delay_sum += d;
    ++traffic_.delay_samples;
  }

  sim::Simulator& sim_;

 private:
  net::Node node_;
  energy::EnergyAccountant acc_;
  ClientTraffic traffic_;
  sim::Time start_time_;
  net::WirelessMedium& medium_;
  net::WirelessMedium::StationId station_id_;
};

}  // namespace pp::client
