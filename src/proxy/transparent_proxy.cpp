#include "proxy/transparent_proxy.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "check/check.hpp"
#include "obs/observer.hpp"
#include "proxy/burst.hpp"

namespace pp::proxy {

TransparentProxy::TransparentProxy(sim::Simulator& sim,
                                   std::unique_ptr<Scheduler> scheduler,
                                   ProxyParams params)
    : sim_{sim},
      scheduler_{std::move(scheduler)},
      params_{params},
      wired_sink_{*this, /*wired=*/true},
      wireless_sink_{*this, /*wired=*/false} {
  // Non-negotiable transport settings for the splice to work.
  params_.server_side_tcp.manual_consume = true;
  params_.client_side_tcp.defer_rtx_when_gated = true;
}

TransparentProxy::~TransparentProxy() {
  tick_handle_.cancel();
  for (auto& h : burst_handles_) h.cancel();
}

void TransparentProxy::calibrate(const net::WirelessMedium& medium) {
  // Microbenchmark of Section 3.2.2: sample per-frame channel time over a
  // range of payload sizes and fit the linear send-cost model.
  std::vector<BandwidthEstimator::Sample> samples;
  samples.reserve(8);
  for (std::uint32_t payload : {40u, 200u, 400u, 600u, 800u, 1000u, 1200u,
                                1400u}) {
    net::Packet probe;
    probe.dst = net::Ipv4Addr::octets(172, 16, 0, 200);
    probe.proto = net::Protocol::Udp;
    probe.payload = payload;
    samples.push_back({payload, medium.airtime_of(probe).to_seconds() *
                                    params_.cost_model_scale});
  }
  estimator_.fit(samples);
}

void TransparentProxy::set_obs(obs::Observer* ob) {
  obs_ = ob;
  if (obs_ == nullptr) return;
  obs::MetricsRegistry& m = obs_->metrics;
  hist_burst_us_ = m.histogram("proxy.burst_duration_us");
  hist_burst_bytes_ = m.histogram("proxy.burst_bytes");
  hist_interval_us_ = m.histogram("proxy.schedule_interval_us");
  twg_queue_depth_ = m.time_gauge("proxy.queue_depth_bytes");
  twg_queue_depth_->set(sim_.now(), static_cast<double>(total_q_bytes_));
}

void TransparentProxy::publish(obs::MetricsRegistry& m) const {
  m.counter("proxy.schedules_sent")->inc(stats_.schedules_sent);
  m.counter("proxy.queue_drops")->inc(stats_.queue_drops);
  m.counter("proxy.queued_packets")->inc(stats_.queued_packets);
  m.counter("proxy.empty_burst_markers")->inc(stats_.empty_burst_markers);
  // Churn counters exist only where churn happened, so a churn-free run
  // publishes none of them.
  if (stats_.joins > 0) m.counter("proxy.churn.joins")->inc(stats_.joins);
  if (stats_.leaves > 0) m.counter("proxy.churn.leaves")->inc(stats_.leaves);
  if (stats_.renegotiations > 0)
    m.counter("proxy.churn.renegotiations")->inc(stats_.renegotiations);
  if (stats_.churn_drained_bytes > 0)
    m.counter("proxy.churn.drained_bytes")->inc(stats_.churn_drained_bytes);
  if (stats_.churn_dropped_bytes > 0)
    m.counter("proxy.churn.dropped_bytes")->inc(stats_.churn_dropped_bytes);
  if (stats_.splices_created > 0) {
    const transport::TcpStats tcp = splice_tcp_stats();
    m.counter("tcp.retransmissions")->inc(tcp.retransmissions);
    m.counter("tcp.timeouts")->inc(tcp.timeouts);
    m.counter("tcp.fast_retransmits")->inc(tcp.fast_retransmits);
  }
  scheduler_->publish(m);
}

transport::TcpStats TransparentProxy::splice_tcp_stats() const {
  transport::TcpStats total = closed_splice_tcp_;
  for (ClientId id = 0; id < table_.size(); ++id) {
    for (const Splice* s : table_.splices(id)) {
      total += s->client_side->stats();
      total += s->server_side->stats();
    }
  }
  return total;
}

void TransparentProxy::retire_splice(Splice& s) {
  closed_splice_tcp_ += s.client_side->stats();
  closed_splice_tcp_ += s.server_side->stats();
  ++stats_.splices_closed;
  splices_.erase(splices_.find(s.key));  // s (and s.key) die here
}

void TransparentProxy::read() {
  take_in(sim_.now());
  record_drops();
}

void TransparentProxy::take_in(sim::Time limit) {
  if (ingress_ == nullptr) return;
  ingress_->pull(limit);
  net::Packet pkt;
  sim::Time at;
  while (ingress_->take_arrived(limit, pkt, at)) {
    PP_CHECK_AT(at <= sim_.now(), "proxy.ingress.future_arrival", sim_.now());
    enqueue_downlink(std::move(pkt), at);
  }
}

void TransparentProxy::record_drops() {
  if (obs_)
    for (const PendingDrop& d : pending_drops_)
      obs_->timeline.record(sim_.now(), obs::EventKind::Drop, d.client.raw(),
                            d.bytes);
  pending_drops_.clear();
}

void TransparentProxy::settle(sim::Time t) { take_in(t + sim::Time::ns(1)); }

void TransparentProxy::finish() {
  settle(sim_.now());
  record_drops();
}

void TransparentProxy::start(sim::Time first_srp) {
  if (!wired_tx_ || !wireless_tx_ || !wireless_burst_tx_)
    throw std::logic_error("TransparentProxy: transmitters not wired");
  running_ = true;
  tick_handle_ = sim_.at(first_srp, [this] { schedule_tick(); });
}

void TransparentProxy::stop() {
  running_ = false;
  tick_handle_.cancel();
  for (auto& h : burst_handles_) h.cancel();
  burst_handles_.clear();
}

void TransparentProxy::close_all_gates() {
  // Flat id walk: gate close order is the registration order (and it is
  // order-insensitive anyway — gates are independent).
  for (ClientId id = 0; id < table_.size(); ++id)
    for (Splice* s : table_.splices(id)) s->client_side->set_send_gate(false);
}

void TransparentProxy::pause() {
  read();
  if (paused_) return;
  paused_ = true;
  ++stats_.pauses;
  tick_handle_.cancel();
  for (auto& h : burst_handles_) h.cancel();
  burst_handles_.clear();
  // Close the gates so no splice keeps streaming into a dead interval;
  // queued datagrams and buffered splice bytes stay put.
  close_all_gates();
}

void TransparentProxy::resume() {
  read();
  if (!paused_) return;
  paused_ = false;
  // Re-enter the loop with a fresh SRP: queues drained on the normal path.
  if (running_) tick_handle_ = sim_.at(sim_.now(), [this] { schedule_tick(); });
}

std::uint64_t TransparentProxy::buffered_bytes(net::Ipv4Addr client) const {
  const ClientId id = table_.find(client);
  if (id == kNoClient) return 0;
  std::uint64_t total = table_.queue(id).bytes();
  for (const Splice* s : table_.splices(id))
    total += s->buffered + s->client_side->bytes_unsent();
  return total;
}

void TransparentProxy::register_client(net::Ipv4Addr ip) {
  read();
  const ClientId id = table_.ensure(ip);
  if (table_.membership(id) == Membership::Joined) return;
  // Re-join: a Draining client that comes back keeps its queue; a Departed
  // one starts clean (its queue was dropped at departure).
  table_.drain_timer(id).cancel();
  table_.membership(id) = Membership::Joined;
}

void TransparentProxy::deregister_client(net::Ipv4Addr ip) {
  read();
  const ClientId id = table_.find(ip);
  if (id == kNoClient || table_.membership(id) == Membership::Departed)
    return;
  table_.drain_timer(id).cancel();
  drop_queue(id);
  abort_splices(id);
  table_.membership(id) = Membership::Departed;
  ++stats_.leaves;
  if (obs_)
    obs_->timeline.record(sim_.now(), obs::EventKind::ClientLeave, ip.raw());
}

bool TransparentProxy::client_active(net::Ipv4Addr ip) const {
  const ClientId id = table_.find(ip);
  return id != kNoClient && table_.membership(id) != Membership::Departed;
}

void TransparentProxy::on_assoc_packet(const net::Packet& pkt) {
  if (pkt.app != net::AppKind::Assoc) return;
  const net::AssocHeader& msg = pkt.assoc;
  ++stats_.assoc_rx;
  const ClientId id = table_.ensure(pkt.src);
  switch (msg.kind) {
    case net::AssocKind::Join: {
      const bool fresh = table_.membership(id) != Membership::Joined;
      if (fresh) {
        table_.drain_timer(id).cancel();
        table_.membership(id) = Membership::Joined;
        ++stats_.joins;
        if (obs_)
          obs_->timeline.record(sim_.now(), obs::EventKind::ClientJoin,
                                table_.ip(id).raw());
      }
      // Ack first, renegotiate second: the unicast ack enters the downlink
      // path ahead of the fresh broadcast, so the client normally holds a
      // JoinAck by the time the schedule lands.
      send_assoc(net::AssocKind::JoinAck, table_.ip(id), msg.seq);
      if (fresh) renegotiate();
      break;
    }
    case net::AssocKind::Leave: {
      if (table_.membership(id) == Membership::Departed) {
        // The LeaveAck was lost; the departure already completed.  Re-ack.
        send_assoc(net::AssocKind::LeaveAck, table_.ip(id), msg.seq);
        break;
      }
      table_.leave_seq(id) = msg.seq;
      if (table_.membership(id) == Membership::Draining)
        break;  // retransmission
      if (!msg.graceful) {
        finish_leave(id, /*timed_out=*/false);
        break;
      }
      table_.membership(id) = Membership::Draining;
      table_.drain_timer(id) =
          sim_.after(params_.drain_deadline, [this, ip = table_.ip(id)] {
            read();
            const ClientId cid = table_.find(ip);
            if (cid != kNoClient &&
                table_.membership(cid) == Membership::Draining)
              finish_leave(cid, /*timed_out=*/true);
          });
      // A fresh schedule gives the drain its slot without waiting out the
      // current interval; if nothing is queued this completes immediately.
      maybe_finish_drain(id);
      if (table_.membership(id) == Membership::Draining) renegotiate();
      break;
    }
    case net::AssocKind::JoinAck:
    case net::AssocKind::LeaveAck:
      break;  // client-bound; not expected on the uplink
  }
}

void TransparentProxy::send_assoc(net::AssocKind kind, net::Ipv4Addr client,
                                  std::uint64_t seq) {
  if (!wireless_tx_) return;
  net::Packet pkt = control_packet(client, kAssocPort, kAssocWireBytes);
  pkt.set_assoc({kind, /*graceful=*/true, seq});
  wireless_tx_(std::move(pkt));
}

net::Packet TransparentProxy::control_packet(net::Ipv4Addr dst,
                                             net::Port port,
                                             std::uint32_t payload) const {
  net::Packet pkt;
  pkt.src = params_.proxy_ip;
  pkt.src_port = port;
  pkt.dst = dst;
  pkt.dst_port = port;
  pkt.proto = net::Protocol::Udp;
  pkt.payload = payload;
  pkt.sent_at = sim_.now();
  return pkt;
}

void TransparentProxy::renegotiate() {
  if (!running_ || paused_) return;
  ++stats_.renegotiations;
  // Collapse the current interval: cancel the pending SRP and every
  // burst/repeat timer, close the gates, and broadcast a fresh schedule
  // right away on the normal path.
  tick_handle_.cancel();
  for (auto& h : burst_handles_) h.cancel();
  burst_handles_.clear();
  close_all_gates();
  tick_handle_ = sim_.at(sim_.now(), [this] { schedule_tick(); });
}

bool TransparentProxy::drained(ClientId id) const {
  if (!table_.queue(id).empty()) return false;
  for (const Splice* s : table_.splices(id))
    if (s->buffered + s->client_side->bytes_unsent() > 0) return false;
  return true;
}

void TransparentProxy::maybe_finish_drain(ClientId id) {
  if (table_.membership(id) == Membership::Draining && drained(id))
    finish_leave(id, /*timed_out=*/false);
}

void TransparentProxy::finish_leave(ClientId id, bool timed_out) {
  (void)timed_out;
  table_.drain_timer(id).cancel();
  const std::uint64_t dropped = table_.queue(id).bytes();
  drop_queue(id);
  abort_splices(id);
  table_.membership(id) = Membership::Departed;
  ++stats_.leaves;
  if (obs_)
    obs_->timeline.record(sim_.now(), obs::EventKind::ClientLeave,
                          table_.ip(id).raw(), dropped);
  send_assoc(net::AssocKind::LeaveAck, table_.ip(id), table_.leave_seq(id));
}

void TransparentProxy::drop_queue(ClientId id) {
  net::ChunkQueue& q = table_.queue(id);
  const std::uint64_t bytes = q.bytes();
  while (!q.empty()) {
    total_q_bytes_ -= q.front()->length;
    q.drop_front();
    ++stats_.churn_dropped_packets;
  }
  stats_.churn_dropped_bytes += bytes;
  PP_CHECK_AT(q.bytes() == 0, "proxy.churn.queue_drop", sim_.now());
  if (bytes > 0 && twg_queue_depth_)
    twg_queue_depth_->set(sim_.now(), static_cast<double>(total_q_bytes_));
}

void TransparentProxy::abort_splices(ClientId id) {
  // The departing client will never ack another segment: tear both sides
  // down now so no per-splice state outlives membership.  Wired segments
  // that later arrive for these flows count as unmatched, like segments
  // for any reaped splice.
  std::vector<Splice*>& splices = table_.splices(id);
  while (!splices.empty()) {
    Splice* sp = splices.back();
    splices.pop_back();
    retire_splice(*sp);
  }
}

void TransparentProxy::enqueue_downlink(net::Packet pkt, sim::Time at) {
  const ClientId id = table_.ensure(pkt.dst);
  net::ChunkQueue& q = table_.queue(id);
  // No membership, no buffering: downlink for a departed client is dropped
  // at the door, counted with the queue-limit drops.  Admission in payload
  // bytes — the one queue_limit_bytes convention for application buffering
  // (see net/chunk.hpp).
  if (table_.membership(id) == Membership::Departed ||
      q.bytes() + pkt.payload > params_.queue_limit_bytes) {
    ++stats_.queue_drops;
    if (obs_) pending_drops_.push_back({pkt.dst, pkt.payload});
    return;
  }
  total_q_bytes_ += pkt.payload;
  q.push(std::move(pkt));
  ++stats_.queued_packets;
  if (twg_queue_depth_)
    twg_queue_depth_->set(at, static_cast<double>(total_q_bytes_));
}

void TransparentProxy::on_wired_packet(net::Packet pkt) {
  read();
  if (params_.mode == ProxyMode::Passthrough) {
    wireless_tx_(std::move(pkt));
    return;
  }
  if (pkt.proto == net::Protocol::Tcp &&
      params_.mode == ProxyMode::Splice) {
    auto it = splices_.find(pkt.flow().reversed());
    if (it != splices_.end()) {
      it->second->server_side->on_segment(pkt);
    } else {
      ++stats_.unmatched_packets;  // e.g. segments for a reaped splice
    }
    return;
  }
  // UDP downlink (and, in BufferedPassthrough, raw TCP) is buffered.
  enqueue_downlink(std::move(pkt), sim_.now());
  record_drops();
}

void TransparentProxy::on_wireless_packet(net::Packet pkt) {
  read();
  // Association control is proxy-terminated in every mode — membership is
  // orthogonal to how the downlink is shaped.
  if (pkt.proto == net::Protocol::Udp && !pkt.is_broadcast() &&
      pkt.dst_port == kAssocPort && pkt.src_port == kAssocPort) {
    on_assoc_packet(pkt);
    return;
  }
  if (params_.mode != ProxyMode::Splice) {
    wired_tx_(std::move(pkt));
    return;
  }
  if (pkt.proto == net::Protocol::Udp) {
    wired_tx_(std::move(pkt));  // uplink passes through unshaped
    return;
  }
  auto it = splices_.find(pkt.flow());
  if (it != splices_.end()) {
    it->second->client_side->on_segment(pkt);
    return;
  }
  if (pkt.tcp.syn && !pkt.tcp.ack_flag) {
    Splice& s = create_splice(pkt);
    s.client_side->on_segment(pkt);
    return;
  }
  ++stats_.unmatched_packets;
}

Splice& TransparentProxy::create_splice(const net::Packet& syn) {
  // Figure 3: the client's SYN to the server is terminated locally by a
  // client-side socket masquerading as the server (steps 1-4), and a
  // server-side socket masquerading as the client opens the onward
  // connection (steps 5-8).  Header rewriting is implicit: each socket is
  // constructed with the spoofed endpoints.
  auto splice = std::make_unique<Splice>();
  Splice* sp = splice.get();
  sp->key = syn.flow();

  const transport::Endpoint client_ep{syn.src, syn.src_port};
  const transport::Endpoint server_ep{syn.dst, syn.dst_port};

  sp->client_side = std::make_unique<transport::TcpConnection>(
      sim_,
      [this, sp](net::Packet p) {
        sp->marker.on_egress(p);
        wireless_tx_(std::move(p));
      },
      /*local=*/server_ep, /*remote=*/client_ep, params_.client_side_tcp,
      /*passive=*/true);
  sp->server_side = std::make_unique<transport::TcpConnection>(
      sim_, [this](net::Packet p) { wired_tx_(std::move(p)); },
      /*local=*/client_ep, /*remote=*/server_ep, params_.server_side_tcp,
      /*passive=*/false);

  sp->client_side->set_send_gate(false);  // data flows only in bursts
  sp->client_side->set_obs(obs_);
  sp->server_side->set_obs(obs_);

  sp->server_side->set_on_deliver([sp](std::uint64_t n) { sp->buffered += n; });
  sp->server_side->set_on_remote_fin([this, sp] {
    sp->server_fin = true;
    maybe_finish_splice(*sp);
  });
  sp->client_side->set_on_deliver(
      [sp](std::uint64_t n) { sp->server_side->send(n); });  // uplink bytes
  sp->client_side->set_on_remote_fin([sp] {
    // Client finished sending; propagate the half-close upstream.
    sp->server_side->close();
  });

  table_.splices(table_.ensure(syn.src)).push_back(sp);
  ++stats_.splices_created;
  auto [it, ok] = splices_.emplace(sp->key, std::move(splice));
  PP_CHECK_AT(ok, "proxy.splice.duplicate_flow", sim_.now());
  sp->server_side->connect();
  return *it->second;
}

void TransparentProxy::maybe_finish_splice(Splice& s) {
  // Once the server has finished and every byte has been handed to the
  // client-side socket, close toward the client (the FIN rides the next
  // burst, since FIN emission respects the send gate).
  if (s.server_fin && s.buffered == 0 && !s.client_close_requested) {
    s.client_close_requested = true;
    s.client_side->close();
  }
}

void TransparentProxy::audit() const {
  // Datagram conservation: every packet ever queued was bursted, dropped
  // at a departure, or is still sitting in a per-client queue (queue-limit
  // drops are counted before the queue, so they do not enter the
  // identity).  A departed client must hold no residue at all.
  std::uint64_t residual_pkts = 0;
  std::uint64_t residual_bytes = 0;
  for (ClientId id = 0; id < table_.size(); ++id) {
    // Chunk-granularity structural audit: view totals, refcounts and
    // offset/length ranges of the residual queue itself.
    const net::ChunkQueue& q = table_.queue(id);
    q.audit();
    residual_pkts += q.packets();
    residual_bytes += q.bytes();
    if (table_.membership(id) == Membership::Departed) {
      PP_CHECK_AT(q.empty() && table_.splices(id).empty(),
                  "proxy.churn.departed_state_leak", sim_.now());
    }
  }
  PP_CHECK_AT(stats_.queued_packets == stats_.burst_packets +
                                           stats_.churn_dropped_packets +
                                           residual_pkts,
              "proxy.queue.packet_conservation", sim_.now());
  PP_CHECK_AT(total_q_bytes_ == residual_bytes,
              "proxy.queue.byte_conservation", sim_.now());

  // Splice byte conservation: every in-order byte the server side handed
  // up is either still awaiting a burst or has been submitted to the
  // client-side socket.
  for (ClientId id = 0; id < table_.size(); ++id) {
    for (const Splice* s : table_.splices(id)) {
      PP_CHECK_AT(s->server_side->stats().bytes_delivered ==
                      s->buffered + s->client_side->bytes_submitted(),
                  "proxy.splice.byte_conservation", sim_.now());
    }
  }
}

void TransparentProxy::schedule_tick() {
  read();
  if (!running_ || paused_) return;
  burst_handles_.clear();

  std::vector<ClientDemand>& demands = demands_scratch_;
  demands.clear();
  demands.reserve(table_.size());
  for (ClientId id = 0; id < table_.size(); ++id) {
    // Reap first: a splice whose both sockets are done is retired before
    // its client's demand is summed.
    std::erase_if(table_.splices(id), [this](Splice* s) {
      if (!s->client_side->done() || !s->server_side->done()) return false;
      retire_splice(*s);
      return true;
    });
    // Departed clients are out of the demand set; Draining ones stay until
    // their queue empties or the drain deadline drops it.
    if (table_.membership(id) == Membership::Departed) continue;
    const net::ChunkQueue& q = table_.queue(id);
    ClientDemand d;
    d.ip = table_.ip(id);
    d.udp_bytes = q.bytes();
    d.udp_packets = q.packets();
    for (const Splice* s : table_.splices(id)) {
      d.tcp_bytes += s->buffered + s->client_side->bytes_unsent();
      // A pending or unacknowledged FIN needs a slot too (it only leaves,
      // or is retransmitted, when the gate opens).
      if (s->client_side->close_pending() || s->client_side->fin_unacked())
        d.tcp_bytes += 40;
    }
    // Deadline slack: how long the oldest buffered datagram can still wait
    // before blowing the delay target.  Full target when nothing is queued.
    d.deadline_slack = params_.delay_target;
    if (!q.empty()) {
      const sim::Duration age = sim_.now() - q.front()->data->pkt.sent_at;
      d.deadline_slack = age >= params_.delay_target
                             ? sim::Time::zero()
                             : params_.delay_target - age;
    }
    if (channel_obs_ != nullptr) d.channel = channel_obs_->view_of(d.ip);
    demands.push_back(d);
  }

  BuiltSchedule built = scheduler_->build(demands, estimator_);

  // Slot invariants: every burst spans non-negative time, and no two
  // bursts of one interval may share channel time, or clients would sleep
  // through each other's data (TcpOnly pairs are exempt — see
  // slots_conflict).
  for (std::size_t i = 0; i < built.entries.size(); ++i) {
    PP_CHECK_AT(built.entries[i].duration >= sim::Time::zero(),
                "proxy.schedule.entry_duration", sim_.now());
    for (std::size_t j = i + 1; j < built.entries.size(); ++j) {
      PP_CHECK_AT(!slots_conflict(built.entries[i], built.entries[j]),
                  "proxy.schedule.slot_overlap", sim_.now());
    }
  }

  auto msg = std::make_shared<ScheduleMessage>();
  msg->seq_no = ++schedule_seq_;
  msg->srp_time = sim_.now();
  msg->interval = built.interval;
  msg->reuse_next = built.reuse_next;
  msg->entries = built.entries;
  last_schedule_ = msg;

  net::Packet bc = control_packet(net::Ipv4Addr::broadcast(), kSchedulePort,
                                  msg->serialized_bytes());
  bc.set_message<ScheduleMessage>(msg);
  wireless_tx_(std::move(bc));
  ++stats_.schedules_sent;
  if (obs_) {
    hist_interval_us_->observe(
        static_cast<std::uint64_t>(built.interval.count_us()));
    for (const ScheduleEntry& entry : msg->entries)
      hist_burst_us_->observe(
          static_cast<std::uint64_t>(entry.duration.count_us()));
    obs_->timeline.record(sim_.now(), obs::EventKind::ScheduleBroadcast, 0,
                          msg->entries.size());
  }

  const sim::Time srp = sim_.now();

  // Schedule-loss hardening: rebroadcast the SRP k-1 more times inside the
  // guard window.  Copies share the seq_no (clients dedupe on it) and carry
  // their lag in repeat_offset so delay compensation still anchors on the
  // original SRP.  The timers ride burst_handles_ so pause()/stop() cancel
  // pending repeats with everything else.
  burst_handles_.reserve(static_cast<std::size_t>(
                             std::max(params_.schedule_repeats - 1, 0)) +
                         2 * msg->entries.size());
  for (int r = 1; r < params_.schedule_repeats; ++r) {
    const sim::Duration lag = params_.repeat_spacing * r;
    burst_handles_.push_back(sim_.at(srp + lag, [this, msg, lag] {
      read();
      auto rep = std::make_shared<ScheduleMessage>(*msg);
      rep->repeat_offset = lag;
      net::Packet rbc = control_packet(net::Ipv4Addr::broadcast(),
                                       kSchedulePort, rep->serialized_bytes());
      rbc.set_message<ScheduleMessage>(std::move(rep));
      wireless_tx_(std::move(rbc));
      ++stats_.schedule_repeats_sent;
      if (obs_)
        obs_->timeline.record(sim_.now(), obs::EventKind::ScheduleRepeat, 0,
                              static_cast<std::uint64_t>(lag.count_us()));
    }));
  }

  for (const ScheduleEntry& entry : msg->entries) {
    burst_handles_.push_back(sim_.at(
        srp + entry.rp_offset,
        [this, entry] { BurstSession{*this, entry}.open(); }));
    burst_handles_.push_back(
        sim_.at(srp + entry.rp_offset + entry.duration,
                [this, entry] { BurstSession{*this, entry}.close(); }));
  }
  tick_handle_ = sim_.at(srp + built.interval, [this] { schedule_tick(); });
}

}  // namespace pp::proxy
