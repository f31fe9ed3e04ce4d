#include "workload/video.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "check/check.hpp"

namespace pp::workload {

int fidelity_index(int nominal_kbps) {
  for (int i = 0; i < kNumFidelities; ++i)
    if (kFidelities[i].nominal_kbps == nominal_kbps) return i;
  throw std::invalid_argument("unknown fidelity: " +
                              std::to_string(nominal_kbps));
}

VideoPacketTrace generate_video_trace(int effective_kbps, std::uint64_t seed,
                                      VideoTraceParams params) {
  sim::Rng rng{seed};
  const int frames = static_cast<int>(params.duration_s * params.fps);
  const double frame_dt = 1.0 / params.fps;

  // Scene-level rate factors: each scene lasts 2-8 s with a lognormal
  // activity factor, giving the burstiness the scheduler must absorb.
  std::vector<double> weight(frames);
  int scene_end = 0;
  double scene_factor = 1.0;
  for (int f = 0; f < frames; ++f) {
    if (f >= scene_end) {
      scene_end = f + static_cast<int>(rng.uniform(2.0, 8.0) * params.fps);
      scene_factor = std::clamp(rng.lognormal(0.0, 0.4), 0.4, 2.2);
    }
    const bool i_frame = f % params.gop == 0;
    weight[f] = (i_frame ? params.i_frame_weight : 1.0) * scene_factor;
  }
  double total_weight = 0;
  for (double w : weight) total_weight += w;

  const double total_bytes =
      static_cast<double>(effective_kbps) * 1000.0 / 8.0 * params.duration_s;

  VideoPacketTrace trace;
  for (int f = 0; f < frames; ++f) {
    auto frame_bytes =
        static_cast<std::uint32_t>(total_bytes * weight[f] / total_weight);
    if (frame_bytes == 0) continue;
    // Packetize to the MTU, spreading chunks across the frame interval
    // (RealServer paces within a frame rather than bursting).
    const std::uint32_t npkts = (frame_bytes + params.mtu - 1) / params.mtu;
    for (std::uint32_t k = 0; k < npkts; ++k) {
      const std::uint32_t bytes =
          k + 1 < npkts ? params.mtu : frame_bytes - params.mtu * (npkts - 1);
      const double off =
          f * frame_dt + frame_dt * static_cast<double>(k) / npkts;
      trace.push_back(VideoPacket{sim::Time::seconds(off), bytes,
                                  static_cast<std::uint32_t>(f)});
    }
  }
  return trace;
}

// -- Server ----------------------------------------------------------------------

VideoServer::VideoServer(net::Node& node, VideoServerParams params)
    : node_{node},
      params_{params},
      control_{node, kRtspPort},
      media_{node, kMediaPort} {
  control_.set_on_accept([this](transport::TcpConnection& c) {
    const net::Ipv4Addr client = c.remote().ip;
    c.set_on_deliver([this, client](std::uint64_t) {
      // The PLAY request arrived; start streaming (idempotent per client).
      if (streams_.find(client) == streams_.end()) start_stream(client);
    });
  });
  media_.set_receive_fn(
      [this](const net::Packet& pkt) { on_receiver_report(pkt); });
}

const VideoPacketTrace& VideoServer::trace_for(int fidelity_idx) {
  PP_CHECK(fidelity_idx >= 0 && fidelity_idx < kNumFidelities,
           "workload.video.fidelity_index");
  auto& t = traces_[fidelity_idx];
  if (t.empty()) {
    t = generate_video_trace(kFidelities[fidelity_idx].effective_kbps,
                             params_.trace_seed + fidelity_idx, params_.trace);
  }
  return t;
}

void VideoServer::expect_client(net::Ipv4Addr client, int fidelity_idx) {
  expected_[client] = fidelity_idx;
}

void VideoServer::start_stream(net::Ipv4Addr client) {
  auto it = expected_.find(client);
  if (it == expected_.end()) return;  // unknown client; ignore
  const sim::Time now = node_.sim().now();
  // Catch the channel up first, so this stream's first send is armed after
  // every send that fired before it.
  if (ingress_ != nullptr) ingress_->pull(now);
  auto s = std::make_unique<Stream>();
  s->server = this;
  s->client = client;
  s->fidelity_idx = it->second;
  s->epoch = now;
  s->last_adapt = now;
  s->stats.current_fidelity = s->fidelity_idx;
  Stream* raw = s.get();
  streams_.emplace(client, std::move(s));
  ++streams_started_;
  arm_next(*raw, now);
}

void VideoServer::arm_next(Stream& s, sim::Time now) {
  const VideoPacketTrace& trace = trace_for(s.fidelity_idx);
  if (s.next_pkt >= trace.size()) {
    s.stats.finished = true;
    return;
  }
  const sim::Time due = std::max(s.epoch + trace[s.next_pkt].offset, now);
  if (ingress_ != nullptr) {
    ingress_->arm(s, due);
  } else {
    node_.sim().at(due, [this, &s] { emit(s, node_.sim().now()); });
  }
}

void VideoServer::emit(Stream& s, sim::Time at) {
  // An adaptation past the end of the lower trace finished the stream
  // with this send still armed.
  if (s.stats.finished) return;
  const VideoPacket& vp = trace_for(s.fidelity_idx)[s.next_pkt];
  net::Packet pkt = media_.datagram(s.client, kMediaPort, vp.bytes);
  pkt.set_media({s.seq++, static_cast<std::uint8_t>(s.fidelity_idx)});
  if (ingress_ != nullptr) {
    pkt.sent_at = at;
    ingress_->transmit_paced(std::move(pkt), at);
  } else {
    node_.send(std::move(pkt));
  }
  ++s.stats.packets_sent;
  s.stats.bytes_sent += vp.bytes;
  ++s.next_pkt;
  arm_next(s, at);
}

void VideoServer::on_receiver_report(const net::Packet& pkt) {
  if (!params_.adaptive) return;
  if (pkt.app != net::AppKind::Report) return;
  auto it = streams_.find(pkt.src);
  if (it == streams_.end()) return;
  Stream& s = *it->second;
  // Catch the channel up first: every send due before now goes out at the
  // fidelity it was due at.
  if (ingress_ != nullptr) ingress_->pull(node_.sim().now());
  if (s.stats.finished) return;
  if (pkt.report.loss_fraction <= params_.adapt_loss_threshold) return;
  if (node_.sim().now() - s.last_adapt < params_.adapt_cooldown) return;
  if (s.fidelity_idx == 0) return;
  // RealServer believes the connection is lossy and adapts the stream to a
  // lower-quality, lower-bandwidth one (Section 4.3).
  const double progress =
      trace_for(s.fidelity_idx)[s.next_pkt].offset.to_seconds() /
      params_.trace.duration_s;
  --s.fidelity_idx;
  s.stats.current_fidelity = s.fidelity_idx;
  ++s.stats.downshifts;
  s.last_adapt = node_.sim().now();
  // Resume the lower-fidelity trace at the same point in stream time.  The
  // send already armed carries the lower trace's packet at `pos`; when the
  // lower trace has nothing left there, the stream is over.
  const VideoPacketTrace& lower = trace_for(s.fidelity_idx);
  std::size_t pos = 0;
  while (pos < lower.size() &&
         lower[pos].offset.to_seconds() < progress * params_.trace.duration_s)
    ++pos;
  s.next_pkt = pos;
  if (pos == lower.size()) s.stats.finished = true;
}

const VideoServer::StreamStats* VideoServer::stats_for(
    net::Ipv4Addr client) const {
  auto it = streams_.find(client);
  return it == streams_.end() ? nullptr : &it->second->stats;
}

// -- Client ----------------------------------------------------------------------

VideoClient::VideoClient(net::Node& node, net::Ipv4Addr server,
                         VideoClientParams params)
    : node_{node},
      server_{server},
      params_{params},
      media_{node, kMediaPort},
      last_report_{node.sim().now()} {
  media_.set_receive_fn([this](const net::Packet& pkt) { on_media(pkt); });
}

void VideoClient::play(sim::Time at) {
  node_.sim().at(at, [this] {
    control_ = transport::tcp_connect(node_, server_, kRtspPort);
    control_->set_on_established(
        [this] { control_->send(params_.play_request_bytes); });
  });
}

void VideoClient::on_media(const net::Packet& pkt) {
  ++stats_.packets;
  ++window_packets_;
  stats_.bytes += pkt.payload;
  if (pkt.app == net::AppKind::Media) {
    stats_.highest_seq = std::max(stats_.highest_seq, pkt.media.seq);
    stats_.fidelity_seen = pkt.media.fidelity;
  }
  maybe_send_report();
}

double VideoClient::loss_fraction() const {
  if (stats_.packets == 0) return 0;
  const double expected = static_cast<double>(stats_.highest_seq) + 1.0;
  return std::max(0.0, 1.0 - static_cast<double>(stats_.packets) / expected);
}

double VideoClient::window_loss_fraction() const {
  const double expected =
      static_cast<double>(stats_.highest_seq - window_base_seq_);
  if (expected <= 0) return 0;
  return std::max(0.0,
                  1.0 - static_cast<double>(window_packets_) / expected);
}

void VideoClient::maybe_send_report() {
  // Sent while the WNIC is already awake (we just received data).
  if (node_.sim().now() - last_report_ < params_.rr_interval) return;
  last_report_ = node_.sim().now();
  net::Packet rr = media_.datagram(server_, kMediaPort, 64);
  rr.set_report({window_loss_fraction(), stats_.highest_seq});
  window_packets_ = 0;
  window_base_seq_ = stats_.highest_seq;
  node_.send(std::move(rr));
  ++stats_.reports_sent;
}

}  // namespace pp::workload
