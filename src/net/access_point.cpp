#include "net/access_point.hpp"

#include <stdexcept>
#include <utility>

#include "check/check.hpp"
#include "obs/metrics.hpp"
#include "obs/timeline.hpp"

namespace pp::net {

AccessPoint::AccessPoint(sim::Simulator& sim, WirelessMedium& medium,
                         AccessPointParams params)
    : sim_{sim}, medium_{medium}, params_{params} {
  radio_id_ = medium_.attach_access_point(*this);
}

void AccessPoint::handle_packet(Packet pkt) {
  ++downlink_in_;
  // PSM stations' frames are parked until the next beacon indicates them.
  if (psm_enabled_) {
    if (PsmStation* st = parking_station(pkt.dst)) {
      // Per-station parking cap (payload bytes), separate from the
      // forwarding backlog.
      ChunkQueue& q = st->parked;
      if (q.bytes() + pkt.payload > params_.queue_limit_bytes) {
        ++dropped_;
        note_drop(pkt);
        return;
      }
      q.push(std::move(pkt));
      return;
    }
  }
  forward_downlink(std::move(pkt));
}

void AccessPoint::handle_burst(ChunkQueue burst) {
  if (burst.empty()) return;
  // Stalled AP or PSM-parked destination: off the batched fast path —
  // unbundle onto the per-frame machinery (which re-counts downlink_in_).
  const Ipv4Addr dst = burst.front()->data->pkt.dst;
  if (stalled_ || (psm_enabled_ && parking_station(dst) != nullptr)) {
    while (!burst.empty()) handle_packet(burst.pop_packet());
    return;
  }
  const std::uint64_t n = burst.packets();
  downlink_in_ += n;
  std::uint64_t wire = 0;
  burst.for_each([&wire](const Chunk& c) { wire += chunk_wire_bytes(c); });
  // One admission check for the chain: a slot's burst is one unit of work.
  if (backlog_bytes_ + wire > params_.queue_limit_bytes) {
    dropped_ += n;
    PP_OBS(if (auto* tl = obs_.timeline())
               burst.for_each([&](const Chunk& c) {
                 tl->record(sim_.now(), obs::EventKind::Drop,
                            c.data->pkt.dst.raw(), c.length);
               }));
    return;  // the chain releases its views on destruction
  }
  backlog_bytes_ += wire;
  backlog_packets_ += n;
  PP_OBS(if (twg_backlog_)
             twg_backlog_->set(sim_.now(), static_cast<double>(backlog_bytes_)));
  // One service-delay draw for the whole burst: the slot's frames leave
  // the AP back-to-back, so base delay + jitter (+ spike) is paid once.
  sim::Time depart = sim_.now() + service_delay();
  if (depart < last_departure_) depart = last_departure_;
  last_departure_ = depart;
  departing_bursts_.push(std::move(burst));
  sim_.at(depart, [this, wire, n] {
    PP_CHECK_AT(backlog_bytes_ >= wire && backlog_packets_ >= n,
                "net.access_point.backlog", sim_.now());
    backlog_bytes_ -= wire;
    backlog_packets_ -= n;
    forwarded_ += n;
    PP_OBS(if (twg_backlog_) twg_backlog_->set(
               sim_.now(), static_cast<double>(backlog_bytes_)));
    medium_.transmit_burst(radio_id_, departing_bursts_.pop());
  });
}

void AccessPoint::note_drop(const Packet& pkt) {
  (void)pkt;
  PP_OBS(if (auto* tl = obs_.timeline())
             tl->record(sim_.now(), obs::EventKind::Drop, pkt.dst.raw(),
                        pkt.payload));
}

void AccessPoint::set_obs(obs::Hook hook) {
  (void)hook;
  PP_OBS(obs_ = hook; if (auto* m = obs_.metrics()) {
    twg_backlog_ = m->time_gauge("ap.backlog_bytes");
    twg_backlog_->set(sim_.now(), static_cast<double>(backlog_bytes_));
  });
}

void AccessPoint::publish(obs::MetricsRegistry& m) const {
  m.counter("ap.downlink_dropped")->inc(dropped_);
  m.counter("ap.downlink_forwarded")->inc(forwarded_);
}

void AccessPoint::forward_downlink(Packet pkt) {
  if (backlog_bytes_ + pkt.wire_size() > params_.queue_limit_bytes) {
    ++dropped_;
    note_drop(pkt);
    return;
  }
  backlog_bytes_ += pkt.wire_size();
  ++backlog_packets_;
  PP_OBS(if (twg_backlog_)
             twg_backlog_->set(sim_.now(), static_cast<double>(backlog_bytes_)));
  if (stalled_) {
    stalled_q_.push_back(std::move(pkt));
    return;
  }
  dispatch_downlink(std::move(pkt));
}

void AccessPoint::set_stalled(bool stalled) {
  stalled_ = stalled;
  if (stalled_) return;
  // Release frozen frames in arrival order; each gets a fresh service
  // delay, and the last_departure_ FIFO clamp keeps them in sequence.
  while (!stalled_q_.empty()) {
    Packet p = std::move(stalled_q_.front());
    stalled_q_.pop_front();
    dispatch_downlink(std::move(p));
  }
}

sim::Duration AccessPoint::service_delay() {
  sim::Duration delay = params_.base_delay;
  auto& rng = sim_.rng();
  delay += sim::Time::ns(static_cast<std::int64_t>(
      rng.uniform() * static_cast<double>(params_.jitter_max.count_ns())));
  if (params_.p_spike > 0 && rng.chance(params_.p_spike)) {
    delay += sim::Time::ns(static_cast<std::int64_t>(
        rng.uniform() * static_cast<double>(params_.spike_max.count_ns())));
  }
  return delay;
}

void AccessPoint::dispatch_downlink(Packet pkt) {
  // FIFO: a frame never departs before its predecessor.
  sim::Time depart = sim_.now() + service_delay();
  if (depart < last_departure_) depart = last_departure_;
  last_departure_ = depart;

  const std::uint32_t wire = pkt.wire_size();
  departing_.push(std::move(pkt));
  sim_.at(depart, [this, wire] {
    PP_CHECK_AT(backlog_bytes_ >= wire && backlog_packets_ > 0,
                "net.access_point.backlog", sim_.now());
    backlog_bytes_ -= wire;
    --backlog_packets_;
    ++forwarded_;
    PP_OBS(if (twg_backlog_) twg_backlog_->set(
               sim_.now(), static_cast<double>(backlog_bytes_)));
    medium_.transmit(radio_id_, departing_.pop());
  });
}

void AccessPoint::deliver(Packet pkt, sim::Duration /*airtime*/) {
  if (uplink_ == nullptr)
    throw std::logic_error("AccessPoint: uplink sink not set");
  uplink_->handle_packet(std::move(pkt));
}

void AccessPoint::enable_psm(sim::Duration interval) {
  psm_enabled_ = true;
  beacon_interval_ = interval;
  beacon_timer_ = sim_.after(interval, [this] { send_beacon(); });
}

AccessPoint::PsmStation* AccessPoint::parking_station(Ipv4Addr ip) {
  auto it = psm_stations_.find(ip);
  if (it == psm_stations_.end() || !it->second.associated) return nullptr;
  return &it->second;
}

void AccessPoint::register_psm_station(Ipv4Addr ip) {
  auto it =
      psm_stations_.try_emplace(ip, PsmStation{ChunkQueue{chunk_pool_}}).first;
  it->second.associated = true;
}

void AccessPoint::associate(Ipv4Addr ip) {
  auto it = psm_stations_.find(ip);
  if (it != psm_stations_.end()) it->second.associated = true;
}

void AccessPoint::disassociate(Ipv4Addr ip) {
  PsmStation* st = parking_station(ip);
  if (st == nullptr) return;
  // Flush the departed station's parked frames into the drop counter —
  // each one entered downlink_in_, so conservation demands they leave
  // through dropped_.  An empty queue has no TIM entry, and no further
  // frames park until the station re-associates.
  st->associated = false;
  ChunkQueue& q = st->parked;
  while (!q.empty()) {
    ++dropped_;
    ++assoc_flushed_;
    const Chunk* c = q.front();
    PP_OBS(if (auto* tl = obs_.timeline())
               tl->record(sim_.now(), obs::EventKind::Drop,
                          c->data->pkt.dst.raw(), c->length));
    (void)c;
    q.drop_front();
  }
}

std::uint64_t AccessPoint::psm_buffered_frames() const {
  std::uint64_t n = 0;
  for (const auto& [ip, st] : psm_stations_) n += st.parked.packets();
  return n;
}

void AccessPoint::audit() const {
  // Packet conservation: every downlink frame that ever entered the AP is
  // accounted for exactly once — forwarded onto the air, dropped at a queue
  // limit, sitting in the FIFO backlog, or parked in a PSM queue.
  PP_CHECK_AT(downlink_in_ ==
                  forwarded_ + dropped_ + backlog_packets_ +
                      psm_buffered_frames(),
              "net.access_point.packet_conservation", sim_.now());
}

void AccessPoint::send_beacon() {
  auto msg = std::make_shared<BeaconMessage>();
  msg->seq_no = ++beacon_seq_;
  msg->beacon_interval = beacon_interval_;
  // The TIM lists stations in address order (the map's own order).
  msg->tim.reserve(psm_stations_.size());
  for (const auto& [ip, st] : psm_stations_)
    if (!st.parked.empty()) msg->tim.push_back(ip);

  Packet beacon;
  beacon.dst = Ipv4Addr::broadcast();
  beacon.dst_port = kBeaconPort;
  beacon.src_port = kBeaconPort;
  beacon.proto = Protocol::Udp;
  beacon.payload = 24 + static_cast<std::uint32_t>(msg->tim.size()) * 4;
  beacon.set_message<BeaconMessage>(std::move(msg));
  beacon.sent_at = sim_.now();
  ++beacons_sent_;
  medium_.transmit(radio_id_, std::move(beacon));

  // Release parked frames once the beacon has reached the stations and
  // the awake ones have PS-Polled; a dozing station's frames stay parked
  // for a later beacon.
  const sim::Time polled = medium_.busy_until() + sim::Time::us(200);
  sim_.at(polled, [this] {
    // Address order: the flush order decides downlink FIFO order across
    // stations.
    for (auto& [ip, st] : psm_stations_) {
      ChunkQueue& q = st.parked;
      if (q.empty() || !medium_.station_listening(ip)) continue;
      while (!q.empty()) {
        Packet p = q.pop_packet();
        if (q.empty()) p.marked = true;
        forward_downlink(std::move(p));
      }
    }
  });
  beacon_timer_ = sim_.after(beacon_interval_, [this] { send_beacon(); });
}

}  // namespace pp::net
