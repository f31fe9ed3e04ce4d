#include "net/wireless.hpp"

#include <stdexcept>
#include <utility>

#include "check/check.hpp"
#include "obs/metrics.hpp"

namespace pp::net {

WirelessMedium::WirelessMedium(sim::Simulator& sim, WirelessParams params)
    : sim_{sim}, params_{params} {}

WirelessMedium::StationId WirelessMedium::attach_access_point(
    WirelessStation& ap) {
  if (ap_ != kNoStation)
    throw std::logic_error("WirelessMedium: access point already attached");
  stations_.push_back(Entry{&ap, Ipv4Addr{}});
  ap_ = stations_.size() - 1;
  return ap_;
}

WirelessMedium::StationId WirelessMedium::attach_station(WirelessStation& st,
                                                         Ipv4Addr ip) {
  PP_CHECK_AT(station_of(ip) == kNoStation, "net.wireless.station_ip",
              sim_.now());
  const std::uint32_t row = loss_model_ ? loss_model_->row_of(ip) : 0;
  stations_.push_back(Entry{.station = &st, .ip = ip, .row = row});
  const StationId id = stations_.size() - 1;
  by_ip_.insert(static_cast<std::uint32_t>(id),
                [this](std::uint32_t s) { return stations_[s].ip; });
  return id;
}

WirelessMedium::StationId WirelessMedium::station_of(Ipv4Addr ip) const {
  const std::uint32_t s =
      by_ip_.find(ip, [this](std::uint32_t id) { return stations_[id].ip; });
  return s == IpIndex::kNone ? kNoStation : s;
}

void WirelessMedium::set_loss_model(ChannelLossModel* model) {
  loss_model_ = model;
  if (model == nullptr) return;
  for (StationId i = 0; i < stations_.size(); ++i)
    if (i != ap_) stations_[i].row = model->row_of(stations_[i].ip);
}

void WirelessMedium::set_obs(obs::Hook hook) {
  (void)hook;
  PP_OBS(obs_ = hook; if (auto* m = obs_.metrics()) {
    hist_airtime_us_ = m->histogram("net.frame_airtime_us");
    hist_burst_frames_ = m->histogram("net.burst_frames");
  });
}

void WirelessMedium::publish(obs::MetricsRegistry& m) const {
  m.counter("net.frames_sent")->inc(frames_sent_);
  m.counter("net.frames_missed")->inc(frames_missed_);
  m.counter("net.bursts")->inc(bursts_);
}

void WirelessMedium::set_faded(Ipv4Addr ip, bool on) {
  const StationId i = station_of(ip);
  if (i == kNoStation) return;
  int& fades = stations_[i].fades;
  fades += on ? 1 : -1;
  PP_CHECK_AT(fades >= 0, "net.wireless.fade_pairing", sim_.now());
}

bool WirelessMedium::station_listening(Ipv4Addr ip) const {
  const StationId i = station_of(ip);
  return i != kNoStation && stations_[i].station->listening();
}

sim::Duration WirelessMedium::airtime_of(const Packet& pkt) const {
  const double rate =
      pkt.is_broadcast() ? params_.broadcast_rate_bps : params_.rate_bps;
  const double bits =
      8.0 * static_cast<double>(pkt.wire_size() + params_.mac_framing_bytes);
  return params_.per_frame_overhead + sim::Time::seconds(bits / rate);
}

void WirelessMedium::transmit(StationId sender, Packet pkt) {
  PP_CHECK_AT(sender < stations_.size(), "net.wireless.sender_id",
              sim_.now());
  const sim::Duration airtime = airtime_of(pkt);
  const sim::Time start =
      busy_until_ > sim_.now() ? busy_until_ : sim_.now();
  const sim::Time end = start + airtime;
  busy_until_ = end;
  ++frames_sent_;
  PP_OBS(if (hist_airtime_us_) hist_airtime_us_->observe(
             static_cast<std::uint64_t>(airtime.count_us())));
  stations_[sender].station->on_air(start, airtime);
  frames_.push(FrameInFlight{sender, start, airtime, std::move(pkt)});
  sim_.at(end + params_.propagation, [this] {
    FrameInFlight f = frames_.pop();
    finish_frame(f.sender, std::move(f.pkt), f.air_start, f.airtime);
  });
}

void WirelessMedium::transmit_burst(StationId sender, ChunkQueue burst) {
  if (burst.empty()) return;
  PP_CHECK_AT(sender == ap_, "net.wireless.burst_sender", sim_.now());
  // One airtime computation over the chain: per-frame MAC overhead and
  // framing still apply to every frame; only the reservation is shared.
  const Ipv4Addr dst = burst.front()->data->pkt.dst;
  PP_CHECK_AT(!dst.is_broadcast(), "net.wireless.burst_broadcast",
              sim_.now());
  std::uint64_t wire_and_framing = 0;
  burst.for_each([this, dst, &wire_and_framing](const Chunk& c) {
    PP_CHECK_AT(c.data->pkt.dst == dst, "net.wireless.burst_multi_client",
                sim_.now());
    wire_and_framing += chunk_wire_bytes(c) + params_.mac_framing_bytes;
  });
  const std::uint64_t n = burst.packets();
  const sim::Duration airtime =
      params_.per_frame_overhead * static_cast<std::int64_t>(n) +
      sim::Time::seconds(8.0 * static_cast<double>(wire_and_framing) /
                         params_.rate_bps);
  const sim::Time start = busy_until_ > sim_.now() ? busy_until_ : sim_.now();
  const sim::Time end = start + airtime;
  busy_until_ = end;
  frames_sent_ += n;
  ++bursts_;
  PP_OBS(if (hist_burst_frames_) {
    hist_burst_frames_->observe(n);
    burst.for_each([this](const Chunk& c) {
      hist_airtime_us_->observe(static_cast<std::uint64_t>(
          (params_.per_frame_overhead +
           sim::Time::seconds(8.0 *
                              static_cast<double>(chunk_wire_bytes(c) +
                                                  params_.mac_framing_bytes) /
                              params_.rate_bps))
              .count_us()));
    });
  });
  stations_[sender].station->on_air(start, airtime);
  bursts_in_flight_.push(BurstInFlight{start, std::move(burst)});
  sim_.at(end + params_.propagation, [this] {
    BurstInFlight b = bursts_in_flight_.pop();
    finish_burst(std::move(b.burst), b.air_start);
  });
}

void WirelessMedium::finish_burst(ChunkQueue burst, sim::Time air_start) {
  // Resolve the addressed station once: the whole chain shares one client.
  const StationId receiver = station_of(burst.front()->data->pkt.dst);
  const bool consume = sniffers_.empty();
  sim::Time t = air_start;
  while (!burst.empty()) {
    Packet pkt = burst.pop_packet();
    const sim::Duration airtime = airtime_of(pkt);
    const sim::Time frame_start = t;
    t = t + airtime;
    if (receiver == kNoStation) {
      ++frames_missed_;  // no such station; the frame vanishes
      continue;
    }
    const bool delivered =
        deliver_to(receiver, receiver, pkt, consume, airtime);
    if (consume) continue;
    SnifferRecord rec{std::move(pkt), frame_start, airtime, /*from_ap=*/true,
                      delivered};
    for (auto& s : sniffers_) s(rec);
  }
}

bool WirelessMedium::deliver_to(StationId receiver, StationId channel,
                                Packet& pkt, bool consume,
                                sim::Duration airtime) {
  WirelessStation& st = *stations_[receiver].station;
  // The frame's one fate decision: a faded channel loses it outright, with
  // no draw; otherwise the loss model draws on the channel's row, whether
  // or not the station is listening, so sleep schedules never shift a
  // draw sequence.  No model: the air is lossless.
  const Entry& ch = stations_[channel];
  const bool faded = ch.fades > 0;
  if (faded) ++fade_losses_;
  const bool lost =
      faded ||
      (loss_model_ != nullptr && loss_model_->corrupted(ch.row, sim_.now()));
  if (lost || !st.listening()) {
    st.missed(pkt, airtime);
    ++frames_missed_;
    return false;
  }
  st.deliver(consume ? std::move(pkt) : pkt, airtime);
  return true;
}

void WirelessMedium::finish_frame(StationId sender, Packet pkt,
                                  sim::Time air_start, sim::Duration airtime) {
  if (ap_ == kNoStation)
    throw std::logic_error("WirelessMedium: no access point attached");
  // When no sniffers are attached, the frame's last delivery can consume
  // the packet — one fewer payload-shared_ptr refcount round trip per hop.
  const bool consume = sniffers_.empty();
  bool any_delivered = false;
  if (sender != ap_) {
    // Uplink: always handed to the access point (infrastructure mode).
    any_delivered = deliver_to(ap_, sender, pkt, consume, airtime);
  } else if (!pkt.is_broadcast()) {
    // Unicast downlink: find the addressed station.
    const StationId i = station_of(pkt.dst);
    if (i == kNoStation) {
      ++frames_missed_;  // no such station; frame vanishes
    } else {
      any_delivered = deliver_to(i, i, pkt, consume, airtime);
    }
  } else {
    StationId last = stations_.size() - 1;
    if (last == ap_) --last;
    for (StationId i = 0; i < stations_.size(); ++i) {
      if (i == ap_) continue;
      any_delivered =
          deliver_to(i, i, pkt, consume && i == last, airtime) || any_delivered;
    }
  }
  if (consume) return;
  SnifferRecord rec{std::move(pkt), air_start, airtime, sender == ap_,
                    any_delivered};
  for (auto& s : sniffers_) s(rec);
}

}  // namespace pp::net
