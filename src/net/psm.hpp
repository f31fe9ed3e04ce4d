// 802.11 power-save mode (PSM) support — the baseline the paper's related
// work contrasts with (Section 2: the 802.11b mechanism "is not a good
// match for multimedia").
//
// Model: the access point broadcasts a beacon every beacon interval
// carrying a traffic indication map (TIM) listing dozing stations with
// buffered downlink frames.  Frames for PSM stations are held at the AP;
// after a beacon, the AP releases each indicated station's queue, marking
// the final frame (standing in for the "more data" bit clearing) so the
// station knows it may doze again.  PS-Poll handshakes are folded into the
// post-beacon release — a simplification that favours PSM slightly.
#pragma once

#include <vector>

#include "net/addr.hpp"
#include "net/packet.hpp"
#include "sim/time.hpp"

namespace pp::net {

inline constexpr Port kBeaconPort = 9010;

struct BeaconMessage : Message {
  static constexpr AppKind kApp = AppKind::Beacon;

  std::uint64_t seq_no = 0;
  sim::Duration beacon_interval;
  // Stations with buffered downlink traffic.
  std::vector<Ipv4Addr> tim;

  bool indicates(Ipv4Addr ip) const {
    for (const auto& a : tim)
      if (a == ip) return true;
    return false;
  }
};

}  // namespace pp::net
