// The schedule broadcast: the proxy's contract with its clients.
//
// At every scheduler rendezvous point (SRP) the proxy broadcasts one UDP
// packet describing, for each active client, the offset of its rendezvous
// point (RP) within the coming burst interval and the length of its data
// burst.  The message also announces when the *next* schedule will be sent,
// which is what lets clients sleep in between.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "net/addr.hpp"
#include "net/packet.hpp"
#include "sim/time.hpp"

namespace pp::proxy {

// Well-known UDP port clients listen on for schedule broadcasts.
inline constexpr net::Port kSchedulePort = 9009;

// What traffic the proxy sends in a slot.  Dynamic schedules use Any; the
// slotted static baseline (Figure 7) separates TCP and UDP slots.
enum class SlotKind : std::uint8_t { Any, TcpOnly, UdpOnly };

struct ScheduleEntry {
  net::Ipv4Addr client;
  sim::Duration rp_offset;  // from the SRP (schedule send time)
  sim::Duration duration;   // length of this client's burst slot
  SlotKind kind = SlotKind::Any;
};

struct ScheduleMessage : net::Message {
  static constexpr net::AppKind kApp = net::AppKind::Schedule;

  std::uint64_t seq_no = 0;
  sim::Time srp_time;      // proxy clock when the schedule was sent
  sim::Duration interval;  // next SRP = srp_time + interval
  // Future-work extension (Section 5): when true, the same schedule repeats
  // next interval and clients may skip waking for the next broadcast.
  bool reuse_next = false;
  // How far after srp_time this copy was (re)broadcast.  Zero on the first
  // transmission; k-repeat hardening copies carry their lag so clients can
  // recover the original SRP anchor for delay compensation.
  sim::Duration repeat_offset{};
  std::vector<ScheduleEntry> entries;

  // Entry lookup for one client; nullptr when the client has no burst.
  const ScheduleEntry* find(net::Ipv4Addr ip) const {
    for (const auto& e : entries)
      if (e.client == ip) return &e;
    return nullptr;
  }

  // Approximate serialized size: header + per-entry (addr, two offsets).
  std::uint32_t serialized_bytes() const {
    return 24 + static_cast<std::uint32_t>(entries.size()) * 12;
  }

  std::string str() const;
};

}  // namespace pp::proxy
