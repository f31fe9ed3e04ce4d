#include "proxy/burst.hpp"

#include <algorithm>
#include <utility>

#include "check/check.hpp"
#include "obs/metrics.hpp"
#include "obs/timeline.hpp"
#include "proxy/transparent_proxy.hpp"

namespace pp::proxy {

void BurstSession::open() {
  TransparentProxy& p = proxy_;
  p.read();
  // The demand set can shrink mid-interval: a client that departed between
  // the SRP and its slot must not have state re-created for a burst nobody
  // is listening to.  Its slot simply goes unused (non-overlap holds).
  const ClientId id = p.table_.find(entry_.client);
  if (id == kNoClient || p.table_.membership(id) == Membership::Departed) {
    ++p.stats_.bursts_skipped;
    return;
  }
  ++p.stats_.bursts_opened;
  sim::Duration budget = entry_.duration - p.params_.slots.burst_guard;
  if (budget < sim::Time::zero()) budget = sim::Time::zero();
  const double budget_s = budget.to_seconds();
  double spent_s = 0;

  // Phase 1: move buffered raw datagrams (UDP, or everything in
  // BufferedPassthrough mode) into the burst chain, paced by the send-cost
  // model.  Chunk views move between the queues; the datagrams stay put.
  net::ChunkQueue chain{p.chunk_pool_};
  net::ChunkQueue& pkt_q = p.table_.queue(id);
  if (entry_.kind != SlotKind::TcpOnly) {
    while (!pkt_q.empty()) {
      const std::uint32_t payload = pkt_q.front()->length;
      const double cost = p.estimator_.packet_cost(payload).to_seconds();
      if (spent_s + cost > budget_s) break;
      spent_s += cost;
      pkt_q.pop_front_to(chain);
      p.total_q_bytes_ -= payload;
      ++p.stats_.burst_packets;
    }
    PP_OBS(if (p.twg_queue_depth_ && !chain.empty())
               p.twg_queue_depth_->set(
                   p.sim_.now(), static_cast<double>(p.total_q_bytes_)));
  }

  // Phase 2: plan the TCP allowance for the remaining slot time.
  std::vector<TransparentProxy::BurstPlan>& plans = p.plan_scratch_;
  plans.clear();
  bool any_tcp = false;
  if (entry_.kind != SlotKind::UdpOnly && p.params_.mode == ProxyMode::Splice) {
    const sim::Duration remaining = sim::Time::seconds(budget_s - spent_s);
    std::uint64_t allowance = p.estimator_.payload_budget(
        remaining, p.params_.slots.mtu, p.params_.slots.tcp_ack_bytes);
    const std::vector<Splice*>& splices = p.table_.splices(id);
    plans.reserve(splices.size());
    for (Splice* s : splices) {
      const std::uint64_t pre = s->client_side->bytes_unsent();
      const std::uint64_t pre_use = std::min(allowance, pre);
      allowance -= pre_use;
      const std::uint64_t chunk = std::min(allowance, s->buffered);
      allowance -= chunk;
      plans.push_back({s, chunk, pre});
      if (chunk > 0 || pre > 0) any_tcp = true;
    }
    // Guaranteed progress: a scheduled burst always moves at least one
    // segment of buffered data, even if rounding left no allowance (the
    // burst guard absorbs the overrun).
    if (!any_tcp) {
      for (auto& pl : plans) {
        if (pl.splice->buffered > 0) {
          pl.chunk = std::min<std::uint64_t>(pl.splice->buffered,
                                             p.params_.slots.mtu);
          any_tcp = true;
          break;
        }
      }
    }
  }

  // Burst termination (Section 3.2.2): the very last packet of the burst
  // carries the mark.  TCP data is sent after raw packets, so if any TCP
  // bytes will flow, arm the last active splice's marker; otherwise mark
  // the chain's tail view; otherwise synthesize a tiny marked control
  // packet so the client can sleep (dynamic schedules only).
  Splice* marking = nullptr;
  bool need_empty_marker = false;
  if (any_tcp) {
    for (auto& pl : plans)
      if (pl.chunk > 0 || pl.pre_unsent > 0) marking = pl.splice;
  } else if (!chain.empty()) {
    chain.mark_tail();
  } else if (entry_.kind == SlotKind::Any) {
    need_empty_marker = true;  // sent after the gates open, see below
  }

  // Emit the raw chain as one batched reservation (single airtime
  // computation downstream).
  std::uint64_t burst_bytes = chain.bytes();
  p.stats_.udp_bytes_burst += chain.bytes();
  if (!chain.empty()) p.wireless_burst_tx_(std::move(chain));

  // Write planned bytes into the client-side sockets (gates still closed,
  // so nothing leaves yet), arming the marker before the final write.
  for (auto& pl : plans) {
    if (pl.splice == marking) {
      // If this burst drains the stream and the server has finished, the
      // connection closes right after: put the mark on the FIN itself.
      const bool closes_now =
          (pl.splice->server_fin && pl.splice->buffered == pl.chunk &&
           !pl.splice->client_side->fin_unacked()) ||
          pl.splice->client_side->close_pending();
      if (closes_now) {
        pl.splice->marker.arm_after_with_fin(pl.chunk);
      } else {
        pl.splice->marker.arm_after(pl.chunk);
      }
    }
    if (pl.chunk > 0) {
      pl.splice->server_side->consume(pl.chunk);
      pl.splice->buffered -= pl.chunk;
      pl.splice->marker.bytes_written(pl.chunk);
      pl.splice->client_side->send(pl.chunk);
      p.stats_.tcp_bytes_burst += pl.chunk;
      burst_bytes += pl.chunk;
    }
    p.maybe_finish_splice(*pl.splice);
  }
  // Open the gates: pre-unsent and new bytes flow, cwnd permitting.
  for (auto& pl : plans) pl.splice->client_side->set_send_gate(true);

  // The empty-burst marker goes out last so that control segments flushed
  // by the gate opening (FINs, deferred retransmissions) reach the client
  // before it sleeps on the mark.
  if (need_empty_marker) emit_empty_marker();

  if (p.table_.membership(id) == Membership::Draining)
    p.stats_.churn_drained_bytes += burst_bytes;

  PP_OBS(if (p.hist_burst_bytes_) p.hist_burst_bytes_->observe(burst_bytes);
         if (auto* tl = p.obs_.timeline())
             tl->span(p.sim_.now(), entry_.duration, obs::EventKind::Burst,
                      entry_.client.raw(), burst_bytes));

  // A graceful leaver whose last queued byte just went out departs now
  // rather than waiting for the drain deadline.  (May destroy this burst's
  // splices — nothing below touches them.)
  p.maybe_finish_drain(id);
}

void BurstSession::close() {
  TransparentProxy& p = proxy_;
  p.read();
  if (entry_.kind == SlotKind::UdpOnly) return;
  const ClientId id = p.table_.find(entry_.client);
  if (id == kNoClient) return;
  for (Splice* s : p.table_.splices(id))
    s->client_side->set_send_gate(false);
}

void BurstSession::emit_empty_marker() {
  TransparentProxy& p = proxy_;
  net::Packet pkt = p.control_packet(entry_.client, kSchedulePort, 16);
  pkt.marked = true;
  ++p.stats_.empty_burst_markers;
  PP_OBS(if (auto* tl = p.obs_.timeline())
             tl->record(p.sim_.now(), obs::EventKind::EmptyBurstMarker,
                        entry_.client.raw()));
  p.wireless_tx_(std::move(pkt));
}

}  // namespace pp::proxy
