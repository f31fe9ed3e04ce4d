// The transparent proxy (Section 3).
//
// The proxy is a bridge between the wired LAN (servers) and the access
// point (clients).  Neither side knows it exists:
//
//  * TCP connections are spliced (Figure 3): the client's SYN to a server
//    is terminated at a proxy-owned "client-side" socket that masquerades
//    as the server, and a matching "server-side" socket masquerading as the
//    client connects onward.  The double connection keeps the server-side
//    RTT free of client buffering delay, so the sender's window stays open.
//  * UDP downlink datagrams are buffered per client and released in bursts.
//  * Uplink traffic (ACKs, requests, receiver reports) passes through
//    immediately — only the downlink is shaped.
//
// At each SRP the proxy snapshots all client queues, asks its Scheduler
// for a burst layout, broadcasts the schedule, and bursts each client's
// data in its slot, terminating every burst with a marked packet.
//
// Like the paper's queuing process, the proxy files intercepted datagrams
// when it reads, not as each one lands: paced datagrams wait in its
// ingress channel (see set_ingress), and every proxy event first takes in
// whatever arrived before it.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "net/chunk.hpp"
#include "net/link.hpp"
#include "net/packet.hpp"
#include "net/wireless.hpp"
#include "obs/fwd.hpp"
#include "proxy/assoc.hpp"
#include "proxy/bandwidth.hpp"
#include "proxy/client_table.hpp"
#include "proxy/marker.hpp"
#include "proxy/schedule.hpp"
#include "proxy/scheduler.hpp"
#include "sim/simulator.hpp"
#include "transport/tcp.hpp"

namespace pp::proxy {

class BurstSession;

// One spliced TCP connection pair (Figure 3): the client-side socket
// masquerades as the server, the server-side socket as the client.  Owned
// by the proxy's lookup-only splices_ map; the ClientTable row of key.src
// holds a non-owning pointer, in creation order.
struct Splice {
  net::FlowKey key;  // client -> server
  std::unique_ptr<transport::TcpConnection> client_side;
  std::unique_ptr<transport::TcpConnection> server_side;
  BurstMarker marker;
  std::uint64_t buffered = 0;  // server bytes awaiting burst to client
  bool server_fin = false;     // server finished sending
  bool client_close_requested = false;
};

enum class ProxyMode : std::uint8_t {
  // Full system: spliced TCP + buffered UDP + burst scheduling.
  Splice,
  // Ablation: buffer and burst raw packets without splicing — the
  // end-to-end TCP connection sees the full buffering delay.
  BufferedPassthrough,
  // Ablation/baseline: forward everything immediately (no proxy effect).
  Passthrough,
};

struct ProxyParams {
  net::Ipv4Addr proxy_ip = net::Ipv4Addr::octets(10, 0, 0, 254);
  // Per-client datagram buffer.  Section 3.2.2 sizes the whole proxy at
  // ~one second of data for all clients (512 KB at 4 Mb/s); per client
  // that is ~64 KB — and keeping it near one second also keeps the
  // receiver-report feedback loop fast enough for stream adaptation.
  std::uint64_t queue_limit_bytes = 64 * 1024;
  SlotParams slots{};
  ProxyMode mode = ProxyMode::Splice;
  // Ablation knob: scale the calibrated send-cost model.  Values below 1
  // make the proxy overestimate channel capacity, reproducing the slot
  // overruns Section 3.2.2's microbenchmarks exist to prevent.
  double cost_model_scale = 1.0;
  // Schedule-loss hardening: total SRP broadcast transmissions per interval
  // (1 = no repeats).  Repeats are spaced `repeat_spacing` apart, carry the
  // same seq_no (clients dedupe) and a repeat_offset so delay compensation
  // still anchors on the original SRP.
  int schedule_repeats = 1;
  sim::Duration repeat_spacing = sim::Time::ms(3);
  // Downlink delay target used to compute per-client deadline slack for the
  // scheduler (time the oldest queued datagram can still wait).  Policies
  // that ignore slack (the paper's own schedulers) are unaffected.  Must
  // exceed 2x the SRP interval for deferral to ever be safe: the oldest
  // queued packet at an SRP is typically one interval old already, so a
  // target below 2 intervals makes every client permanently urgent.
  sim::Duration delay_target = sim::Time::ms(2000);
  transport::TcpOptions server_side_tcp{};  // manual_consume forced on
  transport::TcpOptions client_side_tcp{};  // defer_rtx_when_gated forced on
  // Graceful-leave drain budget: a departing client's queue stays in the
  // demand set this long; whatever has not been bursted by then is dropped
  // (with conservation accounting) and the LeaveAck goes out regardless.
  sim::Duration drain_deadline = sim::Time::ms(1500);
};

struct ProxyStats {
  std::uint64_t schedules_sent = 0;
  std::uint64_t bursts_opened = 0;
  std::uint64_t queued_packets = 0;
  std::uint64_t burst_packets = 0;  // raw packets released from the queue
  std::uint64_t queue_drops = 0;
  std::uint64_t udp_bytes_burst = 0;
  std::uint64_t tcp_bytes_burst = 0;
  std::uint64_t splices_created = 0;
  std::uint64_t splices_closed = 0;
  std::uint64_t empty_burst_markers = 0;
  std::uint64_t unmatched_packets = 0;
  std::uint64_t schedule_repeats_sent = 0;
  std::uint64_t pauses = 0;
  // -- Churn lifecycle ---------------------------------------------------------
  std::uint64_t joins = 0;               // Join handshakes admitted
  std::uint64_t leaves = 0;              // departures completed (acked/forced)
  std::uint64_t renegotiations = 0;      // membership-triggered immediate SRPs
  std::uint64_t assoc_rx = 0;            // association control packets seen
  std::uint64_t bursts_skipped = 0;      // slots whose client left mid-interval
  std::uint64_t churn_drained_bytes = 0;   // bytes bursted while Draining
  std::uint64_t churn_dropped_packets = 0; // queue packets dropped at departure
  std::uint64_t churn_dropped_bytes = 0;
};

class TransparentProxy {
 public:
  TransparentProxy(sim::Simulator& sim, std::unique_ptr<Scheduler> scheduler,
                   ProxyParams params = {});
  ~TransparentProxy();

  TransparentProxy(const TransparentProxy&) = delete;
  TransparentProxy& operator=(const TransparentProxy&) = delete;

  // -- Wiring ------------------------------------------------------------------
  // Sink for packets arriving from the wired LAN (the bridge's LAN port).
  net::PacketSink& wired_sink() { return wired_sink_; }
  // Sink for packets arriving from the access point (uplink).
  net::PacketSink& wireless_sink() { return wireless_sink_; }
  void set_wired_tx(std::function<void(net::Packet)> tx) {
    wired_tx_ = std::move(tx);
  }
  void set_wireless_tx(std::function<void(net::Packet)> tx) {
    wireless_tx_ = std::move(tx);
  }
  // The LAN channel into the bridge port, whose paced datagrams arrive
  // without events (see net::Channel::arm).  A read (an SRP tick, a burst
  // open or close, a repeat or drain timer, any wired or wireless packet,
  // register/deregister, pause/resume) first takes in every datagram that
  // arrived before now, in arrival order, as if each had been filed on
  // arrival.  A datagram that overflows its queue is counted at once; its
  // timeline Drop record is written at the next read (or at finish()), so
  // the records do not depend on when settle() ran.  Null (the default) in
  // Passthrough mode, which forwards at arrival.
  void set_ingress(net::Channel* ingress) { ingress_ = ingress; }
  net::Channel* ingress() const { return ingress_; }
  // Take in every datagram that arrived through `t`, between events (the
  // testbed calls it after running to `t`): queries are exact afterwards.
  void settle(sim::Time t);
  // End of run: settle through now and write the pending Drop records.
  void finish();

  // Batched emission: a burst's raw-datagram chain leaves as one ChunkQueue
  // (one link/medium reservation per slot).  Required, like the two above.
  // Control traffic (schedule broadcasts, spliced TCP segments, markers,
  // acks) always uses wireless_tx_.
  void set_wireless_burst_tx(std::function<void(net::ChunkQueue)> tx) {
    wireless_burst_tx_ = std::move(tx);
  }

  // Fit the send-cost model from the medium (the microbenchmark of
  // Section 3.2.2).  Must be called before start().
  void calibrate(const net::WirelessMedium& medium);

  // Begin the schedule loop with the first SRP at `first_srp`.
  void start(sim::Time first_srp);
  void stop();

  // Fault injection: freeze the schedule loop (cancel the pending SRP and
  // burst timers, close every client send gate) while preserving all
  // queues and splices.  resume() broadcasts a fresh schedule immediately.
  void pause();
  void resume();
  bool paused() const { return paused_; }

  // -- Membership --------------------------------------------------------------
  // Admit a client into the demand set (pre-registration at testbed start,
  // or a re-join after deregister_client / a Leave).  Idempotent.
  void register_client(net::Ipv4Addr ip);
  // Inverse of register_client: abrupt removal.  Drops the client's queued
  // datagrams (counted as churn drops so conservation audits still hold),
  // aborts its splices, and excludes it from future schedules.  The state
  // slot itself is retained (Departed) so churn never grows the heap; a
  // later register_client revives it with no stale bytes.  No-op for
  // unknown clients.
  void deregister_client(net::Ipv4Addr ip);
  // True while the client is in the demand set (Joined or Draining).
  bool client_active(net::Ipv4Addr ip) const;

  // Wire a channel-quality observer (owned elsewhere — typically the
  // testbed's ChannelModel).  When set, each SRP's demand snapshot carries
  // the per-client ChannelView so channel-aware policies can act on it.
  // Queries only: never perturbs the observed model's RNG streams.
  void set_channel_observer(const channel::ChannelObserver* obs) {
    channel_obs_ = obs;
  }

  // Attach the schedule/burst histograms, the queue-depth gauge and the
  // timeline.  Also forwarded to the TCP connections of every splice
  // created afterwards.
  void set_obs(obs::Observer* ob);
  // Write the proxy counters from stats(): the proxy.churn.* ones only
  // when nonzero, the tcp.* ones (from splice_tcp_stats()) only once a
  // splice exists, and the scheduler's own.
  void publish(obs::MetricsRegistry& m) const;

  // -- Introspection ------------------------------------------------------------
  const ProxyStats& stats() const { return stats_; }
  const Scheduler& scheduler() const { return *scheduler_; }
  // TCP counters summed over every splice's two sockets, closed or live.
  transport::TcpStats splice_tcp_stats() const;
  const BandwidthEstimator& estimator() const { return estimator_; }
  std::uint64_t buffered_bytes(net::Ipv4Addr client) const;
  std::size_t splice_count() const { return splices_.size(); }
  // Invariant audit (see src/check/): datagram-queue packet/byte
  // conservation and per-splice byte conservation.  Aborts via PP_CHECK
  // on violation.
  void audit() const;
  const ScheduleMessage* last_schedule() const { return last_schedule_.get(); }

 private:
  // One splice's TCP allowance within a burst (BurstSession scratch).
  struct BurstPlan {
    Splice* splice;
    std::uint64_t chunk;
    std::uint64_t pre_unsent;
  };

  class Sink : public net::PacketSink {
   public:
    Sink(TransparentProxy& p, bool wired) : proxy_{p}, wired_{wired} {}
    void handle_packet(net::Packet pkt) override {
      if (wired_) {
        proxy_.on_wired_packet(std::move(pkt));
      } else {
        proxy_.on_wireless_packet(std::move(pkt));
      }
    }

   private:
    TransparentProxy& proxy_;
    bool wired_;
  };

  void on_wired_packet(net::Packet pkt);
  void on_wireless_packet(net::Packet pkt);
  // Every event-driven entry point starts here: take in what arrived
  // before now and write the pending Drop records.
  void read();
  // Take in the ingress datagrams that arrived before `limit`.
  void take_in(sim::Time limit);
  void record_drops();
  // File a downlink datagram that arrived at `at` (<= now).
  void enqueue_downlink(net::Packet pkt, sim::Time at);
  void on_assoc_packet(const net::Packet& pkt);
  // A proxy-originated UDP control packet (schedule broadcast and its
  // repeats, association replies, empty-burst markers): proxy source, the
  // same port at both ends, stamped now.
  net::Packet control_packet(net::Ipv4Addr dst, net::Port port,
                             std::uint32_t payload) const;
  void send_assoc(net::AssocKind kind, net::Ipv4Addr client, std::uint64_t seq);
  // Membership changed: collapse the current interval and broadcast a
  // fresh schedule immediately (the k-repeat hardening rides along).
  void renegotiate();
  bool drained(ClientId id) const;
  void maybe_finish_drain(ClientId id);
  // Complete a departure: drop whatever is left, abort splices, mark
  // Departed, ack the Leave.
  void finish_leave(ClientId id, bool timed_out);
  void drop_queue(ClientId id);
  void abort_splices(ClientId id);
  // Close every splice's client-side send gate (pause / renegotiate).
  void close_all_gates();
  Splice& create_splice(const net::Packet& syn);
  void maybe_finish_splice(Splice& s);
  // Fold a splice's TCP counters into the closed total and destroy it.
  // The caller removes it from its ClientTable row.
  void retire_splice(Splice& s);
  void schedule_tick();

  // Burst emission lives in BurstSession (proxy/burst.hpp): one session
  // per scheduled slot owns the open -> emit -> close lifecycle.
  friend class BurstSession;

  sim::Simulator& sim_;
  std::unique_ptr<Scheduler> scheduler_;
  const channel::ChannelObserver* channel_obs_ = nullptr;
  ProxyParams params_;
  BandwidthEstimator estimator_;
  Sink wired_sink_;
  Sink wireless_sink_;
  std::function<void(net::Packet)> wired_tx_;
  std::function<void(net::Packet)> wireless_tx_;
  std::function<void(net::ChunkQueue)> wireless_burst_tx_;
  net::Channel* ingress_ = nullptr;
  // Backing store for every per-client queue and burst chain.  shared_ptr:
  // chains still in a link's in-flight ring may outlive the proxy at
  // teardown.
  std::shared_ptr<net::ChunkPool> chunk_pool_ =
      std::make_shared<net::ChunkPool>();

  // Flat SoA per-client state, dense ClientId in registration order (see
  // proxy/client_table.hpp).  Every walk, splices included, iterates ids
  // 0..size-1 and then each row's splices in creation order.
  ClientTable table_{chunk_pool_};
  // Owns every live splice, keyed client -> server.  Lookup only (a wired
  // segment probes its reversed flow), never iterated.
  std::unordered_map<net::FlowKey, std::unique_ptr<Splice>, net::FlowKeyHash>
      splices_;

  obs::Observer* obs_ = nullptr;
  obs::Histogram* hist_burst_us_ = nullptr;
  obs::Histogram* hist_burst_bytes_ = nullptr;
  obs::Histogram* hist_interval_us_ = nullptr;
  obs::TimeWeightedGauge* twg_queue_depth_ = nullptr;
  std::uint64_t total_q_bytes_ = 0;  // sum of all clients' pkt_q.bytes()
  // Drops taken in since the last read, awaiting their timeline records
  // (filled only while a timeline is attached).
  struct PendingDrop {
    net::Ipv4Addr client;
    std::uint32_t bytes;
  };
  std::vector<PendingDrop> pending_drops_;

  // SRP-tick scratch, reused every interval so the steady-state schedule
  // loop stays off the heap.
  std::vector<ClientDemand> demands_scratch_;
  std::vector<BurstPlan> plan_scratch_;

  bool running_ = false;
  bool paused_ = false;
  std::uint64_t schedule_seq_ = 0;
  std::shared_ptr<ScheduleMessage> last_schedule_;
  sim::EventHandle tick_handle_;
  std::vector<sim::EventHandle> burst_handles_;
  ProxyStats stats_;
  transport::TcpStats closed_splice_tcp_;  // splices already destroyed
};

}  // namespace pp::proxy
