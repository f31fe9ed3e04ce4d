// Timeline: typed spans and point events keyed to sim::Time.
//
// The simulation-side analogue of a structured tcpdump: the proxy records
// schedule broadcasts and bursts, clients record sleep/wake transitions,
// TCP records stalls, queues record drops.  Events carry a subject (an
// IPv4 address as a raw u32, 0 for "the system") and a free u64 value
// whose meaning depends on the kind (bytes, entry count, ...).  The
// timeline is a recording only: nothing reads it during a run.  A testbed
// hooks it to the components only when a caller keeps the observer
// (ScenarioConfig::keep_obs); otherwise it stays empty.  Its retained
// events are bounded by set_capacity().
//
// Deliberately not dependent on pp_net: instrumented components in every
// layer include this header, and the lowest of them (the medium) sits in
// pp_net itself.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "sim/time.hpp"

namespace pp::obs {

enum class EventKind : std::uint8_t {
  ScheduleBroadcast,  // value = schedule entry count
  Burst,              // span; subject = client, value = payload bytes burst
  EmptyBurstMarker,   // subject = client
  Drop,               // subject = client, value = dropped payload bytes
  Sleep,              // subject = client (radio entered sleep)
  Wake,               // subject = client (radio entered high power)
  TcpStall,           // subject = remote endpoint, value = RTO count
  ScheduleMissed,     // subject = client
  FaultStart,         // subject = client (0 = system-wide), value = FaultKind
  FaultEnd,           // matches a prior FaultStart (same subject + value)
  ScheduleRepeat,     // value = repeat index (1-based)
  Resync,             // subject = client, value = missed SRPs in the outage
  ClientJoin,         // subject = client (proxy admitted a join)
  ClientLeave,        // subject = client, value = dropped payload bytes
};

const char* to_string(EventKind k);
// Inverse of to_string; returns false for unknown names.
bool event_kind_from_string(std::string_view s, EventKind& out);

struct TimelineEvent {
  sim::Time at;
  sim::Duration dur;  // zero for point events
  EventKind kind = EventKind::ScheduleBroadcast;
  std::uint32_t subject = 0;  // IPv4 raw; 0 = no subject
  std::uint64_t value = 0;
};

class Timeline {
 public:
  void record(sim::Time at, EventKind kind, std::uint32_t subject = 0,
              std::uint64_t value = 0) {
    span(at, sim::Time::zero(), kind, subject, value);
  }
  void span(sim::Time at, sim::Duration dur, EventKind kind,
            std::uint32_t subject = 0, std::uint64_t value = 0) {
    if (events_.size() >= capacity_) {
      ++dropped_;
      return;
    }
    events_.push_back({at, dur, kind, subject, value});
  }

  const std::vector<TimelineEvent>& events() const { return events_; }
  std::size_t size() const { return events_.size(); }
  // Events recorded but not retained (the capacity was hit); size() +
  // dropped() counts every recorded event.
  std::uint64_t dropped() const { return dropped_; }
  // Bound the retained events; existing events are kept, and events past
  // the bound are only counted in dropped().
  void set_capacity(std::size_t max_events) { capacity_ = max_events; }

 private:
  std::vector<TimelineEvent> events_;
  std::size_t capacity_ = 1u << 22;  // ~4M events ≈ 130 MB worst case
  std::uint64_t dropped_ = 0;
};

}  // namespace pp::obs
