// The wireless access point: bridges the proxy's wired link onto the
// shared medium (downlink) and forwards station frames upstream (uplink).
//
// Downlink frames pass through a FIFO queue whose service adds a base
// forwarding delay plus random jitter — the access-point delay variation
// that Section 3.3 of the paper compensates for on the clients.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <vector>

#include "net/chunk.hpp"
#include "net/fifo_ring.hpp"
#include "net/link.hpp"
#include "net/psm.hpp"
#include "net/wireless.hpp"
#include "obs/fwd.hpp"
#include "sim/simulator.hpp"

namespace pp::net {

struct AccessPointParams {
  sim::Duration base_delay = sim::Time::us(300);
  // Uniform jitter added to every forwarded frame.
  sim::Duration jitter_max = sim::Time::us(500);
  // Occasionally the AP stalls (CPU contention, management frames): with
  // probability p_spike an extra uniform [0, spike_max) delay is added.
  double p_spike = 0.02;
  sim::Duration spike_max = sim::Time::ms(6);
  // Caps the forwarding FIFO in wire bytes (it models the link budget) and
  // each PSM parked queue in payload bytes (application buffering — the
  // same convention as the proxy's queue_limit_bytes; see net/chunk.hpp).
  std::uint64_t queue_limit_bytes = 512 * 1024;
};

class AccessPoint : public PacketSink, public WirelessStation {
 public:
  AccessPoint(sim::Simulator& sim, WirelessMedium& medium,
              AccessPointParams params = {});

  // Where uplink (station -> wired) frames are forwarded.  Must be set
  // before any station transmits.
  void set_uplink_sink(PacketSink& sink) { uplink_ = &sink; }

  // PacketSink (wired side, downlink direction).
  void handle_packet(Packet pkt) override;
  // Batched downlink: one forwarding-queue admission, one service-delay
  // draw and one departure event for a whole burst chain, handed to the
  // medium as a single reservation.  Stalled and PSM-parked destinations
  // fall back to the per-frame path.
  void handle_burst(ChunkQueue burst) override;

  // WirelessStation (radio side).
  bool listening() const override { return true; }
  void deliver(Packet pkt, sim::Duration airtime) override;

  std::uint64_t downlink_dropped() const { return dropped_; }
  std::uint64_t downlink_forwarded() const { return forwarded_; }
  std::uint64_t backlog_bytes() const { return backlog_bytes_; }

  // Fault injection: while stalled, admitted downlink frames freeze in the
  // forwarding queue (still subject to the queue limit, still counted as
  // backlog so the conservation audit holds); un-stalling releases them in
  // FIFO order with fresh service delays.  Frames whose departure was
  // already scheduled before the stall still leave — a stall freezes the
  // queue head, it does not recall frames in service.
  void set_stalled(bool stalled);
  bool stalled() const { return stalled_; }
  std::uint64_t stalled_frames() const { return stalled_q_.size(); }

  // Attach the backlog depth gauge and the drop timeline events.
  void set_obs(obs::Observer* ob);
  // Write the drop/forward counters from this AP's own counts.
  void publish(obs::MetricsRegistry& m) const;

  // -- 802.11 power-save mode (see net/psm.hpp) -----------------------------------
  // Begin broadcasting beacons every `interval`.  Frames destined to
  // stations registered via register_psm_station() are buffered and
  // released after the beacon that indicates them.
  void enable_psm(sim::Duration interval);
  void register_psm_station(Ipv4Addr ip);
  std::uint64_t beacons_sent() const { return beacons_sent_; }
  std::uint64_t psm_buffered_frames() const;

  // -- Association table (client churn) -------------------------------------------
  // A departing station's parked PSM frames are flushed to the drop
  // counter (so downlink conservation still holds) and its frames stop
  // being parked, so it has no TIM entry; a returning station that was
  // registered for PSM is parked again.  Both are no-ops for stations that
  // never registered, so non-PSM testbeds are unaffected.
  void associate(Ipv4Addr ip);
  void disassociate(Ipv4Addr ip);
  std::uint64_t assoc_flushed_frames() const { return assoc_flushed_; }

  // Invariant audit (see src/check/): downlink packet conservation —
  // in == forwarded + dropped + backlogged + PSM-parked.  Aborts via
  // PP_CHECK on violation.
  void audit() const;

 private:
  void send_beacon();
  void forward_downlink(Packet pkt);
  void dispatch_downlink(Packet pkt);
  // Draw one service delay: base delay, uniform jitter, and the occasional
  // spike.
  sim::Duration service_delay();
  void note_drop(const Packet& pkt);
  sim::Simulator& sim_;
  WirelessMedium& medium_;
  WirelessMedium::StationId radio_id_;
  AccessPointParams params_;
  PacketSink* uplink_ = nullptr;
  sim::Time last_departure_ = sim::Time::zero();
  // Frames and burst chains awaiting their departure events.  Both paths
  // share the last_departure_ clamp, so each ring's departures fire in
  // its push order (see net/fifo_ring.hpp).
  FifoRing<Packet> departing_;
  FifoRing<ChunkQueue> departing_bursts_;
  std::uint64_t backlog_bytes_ = 0;
  std::uint64_t backlog_packets_ = 0;
  std::uint64_t downlink_in_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t forwarded_ = 0;
  bool stalled_ = false;
  std::deque<Packet> stalled_q_;

  obs::Observer* obs_ = nullptr;
  obs::TimeWeightedGauge* twg_backlog_ = nullptr;

  // PSM state, one entry per station ever registered.  Parked queues are
  // ChunkQueues (the shared downlink queue type): payload-byte admission
  // via bytes(), O(1) depth for the TIM.  Nodes come from the AP's own
  // pool — frames arriving in a burst chain are re-wrapped at the parking
  // boundary, which costs a node move, not a payload copy.
  struct PsmStation {
    ChunkQueue parked;
    bool associated = true;  // only associated stations' frames are parked
  };
  // The station's PSM entry if its frames are parked now, else nullptr.
  PsmStation* parking_station(Ipv4Addr ip);

  std::shared_ptr<ChunkPool> chunk_pool_ = std::make_shared<ChunkPool>();
  bool psm_enabled_ = false;
  sim::Duration beacon_interval_;
  std::uint64_t beacon_seq_ = 0;
  std::uint64_t beacons_sent_ = 0;
  std::uint64_t assoc_flushed_ = 0;  // PSM frames dropped at disassociation
  // Address order is the TIM order and the post-beacon release order.
  std::map<Ipv4Addr, PsmStation> psm_stations_;
  sim::EventHandle beacon_timer_;
};

}  // namespace pp::net
