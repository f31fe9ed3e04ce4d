// Wireless-side trace records — the simulation's tcpdump.
//
// The monitoring station (Section 3.1) hears every frame on the medium and
// records it; the postmortem analyzer later replays a trace to compute what
// energy any given client policy would have used.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "net/addr.hpp"
#include "proxy/schedule.hpp"
#include "sim/time.hpp"

namespace pp::trace {

struct TraceRecord {
  sim::Time air_start;
  sim::Duration airtime;
  net::Ipv4Addr src;
  net::Port src_port = 0;
  net::Ipv4Addr dst;
  net::Port dst_port = 0;
  net::Protocol proto = net::Protocol::Udp;
  std::uint32_t payload = 0;
  bool marked = false;
  bool from_ap = false;
  bool delivered = false;  // ground truth from the medium
  // The schedule a broadcast carried, shared with the packet in memory and
  // serialized structurally by the trace writer; null for other frames.
  std::shared_ptr<const proxy::ScheduleMessage> schedule;

  sim::Time air_end() const { return air_start + airtime; }
  bool is_broadcast() const { return dst.is_broadcast(); }
};

using TraceBuffer = std::vector<TraceRecord>;

}  // namespace pp::trace
