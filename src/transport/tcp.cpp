#include "transport/tcp.hpp"

#include <algorithm>
#include <utility>

#include "check/check.hpp"
#include "obs/timeline.hpp"

namespace pp::transport {

const char* to_string(TcpState s) {
  switch (s) {
    case TcpState::Closed: return "Closed";
    case TcpState::SynSent: return "SynSent";
    case TcpState::SynRcvd: return "SynRcvd";
    case TcpState::Established: return "Established";
    case TcpState::FinWait: return "FinWait";
    case TcpState::CloseWait: return "CloseWait";
    case TcpState::LastAck: return "LastAck";
    case TcpState::Done: return "Done";
  }
  return "?";
}

TcpConnection::TcpConnection(sim::Simulator& sim, SendFn send, Endpoint local,
                             Endpoint remote, TcpOptions opts, bool passive)
    : sim_{sim},
      send_fn_{std::move(send)},
      local_{local},
      remote_{remote},
      opts_{opts},
      state_{TcpState::Closed},
      cwnd_{std::uint64_t{opts.initial_cwnd_segments} * opts.mss},
      ssthresh_{std::uint64_t{1} << 30},
      peer_wnd_{opts.recv_window},
      rto_{opts.initial_rto} {
  (void)passive;  // passive connections simply wait for the SYN
}

TcpConnection::~TcpConnection() { cancel_rtx_timer(); }

std::uint32_t TcpConnection::advertised_window() const {
  std::uint64_t used = opts_.manual_consume ? unconsumed_ : 0;
  for (const auto& [s, e] : ooo_) used += e - s;
  return used >= opts_.recv_window
             ? 0u
             : static_cast<std::uint32_t>(opts_.recv_window - used);
}

void TcpConnection::emit(std::uint64_t seq, std::uint32_t len, bool syn,
                         bool fin, bool is_rtx) {
  net::Packet pkt;
  pkt.src = local_.ip;
  pkt.src_port = local_.port;
  pkt.dst = remote_.ip;
  pkt.dst_port = remote_.port;
  pkt.proto = net::Protocol::Tcp;
  pkt.payload = len;
  pkt.tcp.syn = syn;
  pkt.tcp.fin = fin;
  // Wire sequence space: SYN occupies 0, data byte k occupies k+1, FIN
  // occupies L+1 (L = stream length).  `seq` arrives in data coordinates.
  pkt.tcp.seq = syn ? 0 : seq + 1;
  if (syn_received_) {
    pkt.tcp.ack_flag = true;
    std::uint64_t ack = rcv_nxt_data_ + 1;  // +1 for the peer's SYN
    if (fin_received_ && rcv_nxt_data_ >= fin_seq_data_) ack += 1;
    pkt.tcp.ack = ack;
  }
  pkt.tcp.wnd = advertised_window();
  pkt.sent_at = sim_.now();
  ++stats_.segments_sent;
  stats_.bytes_sent += len;
  if (is_rtx) ++stats_.retransmissions;

  // Karn's algorithm: time one un-retransmitted data segment at a time.
  if (!is_rtx && len > 0 && !timing_) {
    timing_ = true;
    timed_seq_ = seq + len;
    timed_sent_at_ = sim_.now();
  }
  if (egress_hook_) egress_hook_(pkt);
  send_fn_(std::move(pkt));
}

void TcpConnection::send_ack() {
  // Pure ACK: carries the next wire seq we would send, no payload.
  emit(snd_nxt_data_, 0, false, false, false);
}

void TcpConnection::connect() {
  PP_CHECK_AT(state_ == TcpState::Closed, "transport.tcp.connect", sim_.now());
  state_ = TcpState::SynSent;
  emit(0, 0, /*syn=*/true, false, false);
  arm_rtx_timer();
}

void TcpConnection::send(std::uint64_t bytes) {
  app_limit_ += bytes;
  if (established() || state_ == TcpState::CloseWait) try_send();
}

void TcpConnection::close() {
  fin_pending_ = true;
  maybe_send_fin();
}

void TcpConnection::consume(std::uint64_t bytes) {
  PP_CHECK_AT(opts_.manual_consume, "transport.tcp.consume", sim_.now());
  PP_CHECK_AT(bytes <= unconsumed_, "transport.tcp.consume", sim_.now());
  const std::uint32_t before = advertised_window();
  unconsumed_ -= bytes;
  // Window update: tell a potentially stalled sender that space opened up.
  if (before < opts_.mss && advertised_window() >= opts_.mss &&
      state_ != TcpState::Closed && syn_received_) {
    send_ack();
  }
}

void TcpConnection::set_send_gate(bool open) {
  if (gate_open_ == open) return;
  gate_open_ = open;
  if (open) {
    if (rtx_deferred_) {
      rtx_deferred_ = false;
      retransmit_one();
      arm_rtx_timer();
    }
    try_send();
    maybe_send_fin();
  }
}

void TcpConnection::try_send() {
  if (!gate_open_) return;
  if (!(established() || state_ == TcpState::CloseWait)) return;
  while (snd_nxt_data_ < app_limit_) {
    const std::uint64_t wnd = std::min<std::uint64_t>(cwnd_, peer_wnd_);
    const std::uint64_t flight = bytes_in_flight();
    if (flight >= wnd) break;
    std::uint64_t len = std::min<std::uint64_t>(
        {static_cast<std::uint64_t>(opts_.mss), app_limit_ - snd_nxt_data_,
         wnd - flight});
    if (len == 0) break;
    emit(snd_nxt_data_, static_cast<std::uint32_t>(len), false, false, false);
    snd_nxt_data_ += len;
  }
  // Zero-window deadlock avoidance: probe with one byte.
  if (peer_wnd_ == 0 && bytes_in_flight() == 0 &&
      snd_nxt_data_ < app_limit_ && !rtx_timer_.pending()) {
    sim::Duration probe_after = rto_;
    rtx_timer_ = sim_.after(probe_after, [this] {
      if (peer_wnd_ == 0 && bytes_in_flight() == 0 &&
          snd_nxt_data_ < app_limit_ && gate_open_) {
        emit(snd_nxt_data_, 1, false, false, false);
        snd_nxt_data_ += 1;
        arm_rtx_timer();
      } else {
        try_send();
      }
    });
    return;
  }
  maybe_send_fin();
  if (bytes_in_flight() > 0 && !rtx_timer_.pending()) arm_rtx_timer();
}

void TcpConnection::maybe_send_fin() {
  if (!fin_pending_ || fin_sent_ || !gate_open_) return;
  if (!(established() || state_ == TcpState::CloseWait)) return;
  if (snd_nxt_data_ < app_limit_) return;  // data still unsent
  fin_sent_ = true;
  emit(app_limit_, 0, false, /*fin=*/true, false);
  state_ = fin_received_ ? TcpState::LastAck : TcpState::FinWait;
  arm_rtx_timer();
}

void TcpConnection::arm_rtx_timer() {
  cancel_rtx_timer();
  rtx_timer_ = sim_.after(rto_, [this] { on_rtx_timeout(); });
}

void TcpConnection::set_obs(obs::Hook hook) {
  (void)hook;
  PP_OBS(obs_ = hook);
}

void TcpConnection::cancel_rtx_timer() { rtx_timer_.cancel(); }

void TcpConnection::on_rtx_timeout() {
  const bool syn_out = (state_ == TcpState::SynSent ||
                        state_ == TcpState::SynRcvd);
  const bool fin_out = fin_sent_ && !fin_acked_;
  if (!syn_out && !fin_out && bytes_in_flight() == 0) return;  // all acked

  ++stats_.timeouts;
  PP_OBS(if (auto* tl = obs_.timeline())
             tl->record(sim_.now(), obs::EventKind::TcpStall,
                        remote_.ip.raw(), stats_.timeouts));
  if (timing_) timing_ = false;  // Karn: retransmitted samples are invalid
  if (!syn_out) {
    const std::uint64_t flight = std::max<std::uint64_t>(
        bytes_in_flight(), std::uint64_t{opts_.mss});
    ssthresh_ = std::max<std::uint64_t>(flight / 2,
                                        std::uint64_t{2} * opts_.mss);
    cwnd_ = opts_.mss;
  }
  dup_acks_ = 0;
  rto_ = std::min(rto_ * 2, opts_.max_rto);
  if (!gate_open_ && opts_.defer_rtx_when_gated) {
    rtx_deferred_ = true;
    return;  // gate reopening retransmits and re-arms
  }
  retransmit_one();
  arm_rtx_timer();
}

void TcpConnection::retransmit_one() {
  if (state_ == TcpState::SynSent) {
    emit(0, 0, true, false, true);
    return;
  }
  if (state_ == TcpState::SynRcvd) {
    emit(0, 0, true, false, true);  // SYN-ACK again
    return;
  }
  if (snd_una_data_ < snd_nxt_data_) {
    const std::uint64_t len = std::min<std::uint64_t>(
        {static_cast<std::uint64_t>(opts_.mss),
         snd_nxt_data_ - snd_una_data_});
    emit(snd_una_data_, static_cast<std::uint32_t>(len), false, false, true);
    return;
  }
  if (fin_sent_ && !fin_acked_) {
    emit(app_limit_, 0, false, true, true);
  }
}

void TcpConnection::enter_established() {
  if (established()) return;
  state_ = TcpState::Established;
  rto_ = opts_.initial_rto;
  if (on_established_) on_established_();
  try_send();
}

void TcpConnection::finish_if_done() {
  if (fin_sent_ && fin_acked_ && fin_received_ &&
      rcv_nxt_data_ >= fin_seq_data_) {
    state_ = TcpState::Done;
    cancel_rtx_timer();
    if (!closed_notified_) {
      closed_notified_ = true;
      if (on_closed_) on_closed_();
    }
  }
}

void TcpConnection::process_ack(const net::Packet& pkt) {
  if (!pkt.tcp.ack_flag) return;
  const std::uint64_t a = pkt.tcp.ack;
  const std::uint64_t prev_wnd = peer_wnd_;
  peer_wnd_ = pkt.tcp.wnd;

  if (!syn_acked_ && a >= 1) {
    syn_acked_ = true;
    if (state_ == TcpState::SynSent || state_ == TcpState::SynRcvd)
      enter_established();
  }
  const std::uint64_t data_acked = a >= 1 ? std::min(a - 1, app_limit_) : 0;
  if (fin_sent_ && a >= app_limit_ + 2) {
    if (!fin_acked_) {
      fin_acked_ = true;
      cancel_rtx_timer();
      finish_if_done();
    }
  }

  if (data_acked > snd_una_data_) {
    const std::uint64_t newly = data_acked - snd_una_data_;
    snd_una_data_ = data_acked;
    dup_acks_ = 0;
    // RTT sample (Karn-filtered).
    if (timing_ && snd_una_data_ >= timed_seq_) {
      timing_ = false;
      const sim::Duration sample = sim_.now() - timed_sent_at_;
      if (!rtt_valid_) {
        srtt_ = sample;
        rttvar_ = sample / 2;
        rtt_valid_ = true;
      } else {
        const sim::Duration err =
            sample > srtt_ ? sample - srtt_ : srtt_ - sample;
        rttvar_ = (rttvar_ * 3 + err) / 4;
        srtt_ = (srtt_ * 7 + sample) / 8;
      }
      sim::Duration rto = srtt_ + std::max(rttvar_ * 4, sim::Time::ms(10));
      rto_ = std::clamp(rto, opts_.min_rto, opts_.max_rto);
    }
    if (in_recovery_) {
      if (snd_una_data_ >= recover_point_) {
        in_recovery_ = false;
        cwnd_ = ssthresh_;
      } else {
        retransmit_one();  // NewReno partial ack
      }
    } else if (cwnd_ < ssthresh_) {
      cwnd_ += std::min<std::uint64_t>(newly, opts_.mss);  // slow start
    } else {
      cwnd_ += std::max<std::uint64_t>(
          1, std::uint64_t{opts_.mss} * opts_.mss / cwnd_);  // AIMD
    }
    if (bytes_in_flight() > 0 || (fin_sent_ && !fin_acked_)) {
      arm_rtx_timer();
    } else {
      cancel_rtx_timer();
    }
    try_send();
  } else if (established() && pkt.payload == 0 && !pkt.tcp.syn &&
             !pkt.tcp.fin && data_acked == snd_una_data_ &&
             bytes_in_flight() > 0) {
    ++dup_acks_;
    ++stats_.dup_acks_received;
    if (dup_acks_ == 3 && !in_recovery_) {
      in_recovery_ = true;
      recover_point_ = snd_nxt_data_;
      ssthresh_ = std::max<std::uint64_t>(bytes_in_flight() / 2,
                                          std::uint64_t{2} * opts_.mss);
      cwnd_ = ssthresh_ + std::uint64_t{3} * opts_.mss;
      ++stats_.fast_retransmits;
      retransmit_one();
      arm_rtx_timer();
    }
  }
  if (peer_wnd_ > prev_wnd) try_send();
}

void TcpConnection::process_data(const net::Packet& pkt) {
  if (pkt.payload == 0) return;
  std::uint64_t start = pkt.tcp.seq - 1;  // wire -> data coordinates
  std::uint64_t end = start + pkt.payload;
  if (end <= rcv_nxt_data_) {
    send_ack();  // stale retransmission; re-ack
    return;
  }
  if (start < rcv_nxt_data_) start = rcv_nxt_data_;
  if (start <= rcv_nxt_data_) {
    rcv_nxt_data_ = end;
    // Merge any now-contiguous out-of-order runs.
    auto it = ooo_.begin();
    while (it != ooo_.end() && it->first <= rcv_nxt_data_) {
      rcv_nxt_data_ = std::max(rcv_nxt_data_, it->second);
      it = ooo_.erase(it);
    }
    // Sequence continuity: the cumulative point only moves forward, and
    // every surviving out-of-order run stays strictly beyond it (a run at
    // or below rcv_nxt_data_ means the merge loop lost bytes or delivered
    // some twice — fatal for a proxy splicing two sequence spaces).
    PP_CHECK_AT(rcv_nxt_data_ >= stats_.bytes_delivered,
                "transport.tcp.seq_continuity", sim_.now());
    PP_CHECK_AT(ooo_.empty() || ooo_.begin()->first > rcv_nxt_data_,
                "transport.tcp.seq_continuity", sim_.now());
    const std::uint64_t delivered = rcv_nxt_data_ - stats_.bytes_delivered;
    stats_.bytes_delivered = rcv_nxt_data_;
    if (opts_.manual_consume) unconsumed_ += delivered;
    if (on_deliver_ && delivered > 0) on_deliver_(delivered);
  } else {
    // Out of order: remember the run (coalesce overlaps).
    auto [it, inserted] = ooo_.emplace(start, end);
    if (!inserted) {
      it->second = std::max(it->second, end);
    } else {
      if (it != ooo_.begin()) {
        auto prev = std::prev(it);
        if (prev->second >= it->first) {
          prev->second = std::max(prev->second, it->second);
          it = ooo_.erase(it);
          it = prev;
        }
      }
      auto next = std::next(it);
      while (next != ooo_.end() && next->first <= it->second) {
        it->second = std::max(it->second, next->second);
        next = ooo_.erase(next);
      }
    }
  }
  // The receive stream never runs past the remote FIN.
  PP_CHECK_AT(!fin_received_ || rcv_nxt_data_ <= fin_seq_data_,
              "transport.tcp.fin_overrun", sim_.now());
  send_ack();
}

void TcpConnection::on_segment(const net::Packet& pkt) {
  ++stats_.segments_received;
  if (pkt.tcp.rst) {
    state_ = TcpState::Done;
    cancel_rtx_timer();
    if (!closed_notified_) {
      closed_notified_ = true;
      if (on_closed_) on_closed_();
    }
    return;
  }

  if (pkt.tcp.syn) {
    syn_received_ = true;
    if (state_ == TcpState::Closed) {
      // Passive open: answer SYN with SYN-ACK.
      state_ = TcpState::SynRcvd;
      emit(0, 0, true, false, false);
      arm_rtx_timer();
      return;
    }
    if (state_ == TcpState::SynSent) {
      process_ack(pkt);  // SYN-ACK carries the ack of our SYN
      if (established()) send_ack();
      return;
    }
    if (state_ == TcpState::SynRcvd) {
      emit(0, 0, true, false, true);  // duplicate SYN; repeat SYN-ACK
      return;
    }
    send_ack();  // duplicate SYN on an established connection
    return;
  }

  process_ack(pkt);
  if (state_ == TcpState::SynRcvd && syn_acked_) enter_established();

  process_data(pkt);

  if (pkt.tcp.fin) {
    const std::uint64_t fin_pos = (pkt.tcp.seq - 1) + pkt.payload;
    fin_seq_data_ = fin_pos;
    if (rcv_nxt_data_ >= fin_pos && !fin_received_) {
      fin_received_ = true;
      if (state_ == TcpState::Established) state_ = TcpState::CloseWait;
      if (state_ == TcpState::FinWait && fin_acked_) finish_if_done();
      if (state_ == TcpState::FinWait && !fin_acked_)
        state_ = TcpState::LastAck;
      send_ack();
      if (on_remote_fin_) on_remote_fin_();
      finish_if_done();
    } else if (!fin_received_) {
      send_ack();  // FIN ahead of missing data
    }
  }
}

// -- Node conveniences ---------------------------------------------------------

namespace {

class NodeTcpConnection final : public TcpConnection {
 public:
  NodeTcpConnection(net::Node& node, Endpoint local, Endpoint remote,
                    TcpOptions opts, bool passive)
      : TcpConnection(
            node.sim(), [&node](net::Packet p) { node.send(std::move(p)); },
            local, remote, opts, passive),
        node_{node} {}
  ~NodeTcpConnection() override { node_.unregister_tcp(incoming_flow()); }

 private:
  net::Node& node_;
};

}  // namespace

std::unique_ptr<TcpConnection> tcp_connect(net::Node& node, net::Ipv4Addr dst,
                                           net::Port dst_port,
                                           TcpOptions opts) {
  const Endpoint local{node.ip(), node.alloc_port()};
  const Endpoint remote{dst, dst_port};
  auto conn = std::make_unique<NodeTcpConnection>(node, local, remote, opts,
                                                  /*passive=*/false);
  node.register_tcp(conn->incoming_flow(), *conn);
  conn->connect();
  return conn;
}

TcpServer::TcpServer(net::Node& node, net::Port port, TcpOptions opts)
    : node_{node}, port_{port}, opts_{opts} {
  node_.listen_tcp(port_, [this](const net::Packet& syn) -> net::SegmentHandler* {
    const Endpoint local{node_.ip(), port_};
    const Endpoint remote{syn.src, syn.src_port};
    auto conn = std::make_unique<NodeTcpConnection>(node_, local, remote,
                                                    opts_, /*passive=*/true);
    TcpConnection* raw = conn.get();
    conns_.push_back(std::move(conn));
    if (on_accept_) on_accept_(*raw);
    return raw;
  });
}

TcpServer::~TcpServer() {
  node_.unlisten_tcp(port_);
  conns_.clear();  // NodeTcpConnection dtor unregisters demux entries
}

void TcpServer::reap_done() {
  std::erase_if(conns_, [](const std::unique_ptr<TcpConnection>& c) {
    return c->done();
  });
}

}  // namespace pp::transport
