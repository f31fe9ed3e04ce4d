// A mobile client running 802.11 power-save mode instead of the paper's
// proxy schedule — the baseline of Section 2.
//
// The client dozes between beacons, waking shortly before each one.  If
// the beacon's TIM indicates buffered traffic, it stays awake until the
// final ("no more data") frame arrives; otherwise it dozes again.  Energy
// accounting is RadioStation's, shared with EnergyAwareClient, so PSM and
// proxy scheduling are directly comparable.
#pragma once

#include <cstdint>
#include <string>

#include "client/radio_station.hpp"
#include "energy/wnic.hpp"
#include "net/psm.hpp"
#include "net/wireless.hpp"
#include "sim/simulator.hpp"

namespace pp::client {

struct PsmParams {
  sim::Duration early = sim::Time::ms(2);  // wake this long before a beacon
  sim::Duration beacon_grace = sim::Time::ms(20);
  sim::Duration min_sleep = sim::Time::ms(4);
  sim::Duration activity_hold = sim::Time::ms(50);
};

class PsmClient : public RadioStation {
 public:
  PsmClient(sim::Simulator& sim, net::WirelessMedium& medium,
            energy::EnergyLedger& ledger, net::Ipv4Addr ip, std::string name,
            PsmParams params = {});

  // Begin awake, waiting for the first beacon.
  void start() {}

  std::uint64_t beacons_received() const { return beacons_received_; }
  std::uint64_t beacons_missed() const { return beacons_missed_; }

  // net::WirelessStation.
  bool listening() const override { return awake_; }
  void deliver(net::Packet pkt, sim::Duration airtime) override;

 private:
  void on_beacon(const net::BeaconMessage& b);
  void doze_until(sim::Time t);
  void wake();

  PsmParams params_;
  bool awake_ = true;
  bool draining_ = false;  // TIM indicated us; awaiting the final frame
  sim::Time last_beacon_arrival_;
  sim::Duration beacon_interval_ = sim::Time::ms(100);
  sim::Time hold_until_;
  sim::EventHandle wake_timer_;
  sim::EventHandle grace_timer_;
  std::uint64_t beacons_received_ = 0;
  std::uint64_t beacons_missed_ = 0;
};

}  // namespace pp::client
