// A simplified but functional TCP.
//
// Implements what the paper's transparent proxy depends on: three-way
// handshake, byte-stream sequence space, cumulative ACKs with out-of-order
// reassembly, receiver flow control (advertised window), slow start + AIMD
// congestion control, RTO with exponential backoff and Karn's algorithm,
// fast retransmit on three duplicate ACKs, and FIN teardown.
//
// Byte contents are modelled as counts (the simulation never materializes
// payload buffers).  Sequence numbers are 64-bit and never wrap.
//
// Proxy-specific hooks:
//   * set_send_gate(false) pauses all transmissions (used to confine the
//     proxy's client-side connection to its burst slot);
//   * set_egress_hook() observes/mutates every outgoing segment;
//   * manual consume mode lets the owner delay freeing receive-buffer
//     space so flow control back-pressures the sender (the proxy's
//     server-side connection throttles fast wired servers this way).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>

#include "net/node.hpp"
#include "net/packet.hpp"
#include "obs/hooks.hpp"
#include "sim/simulator.hpp"

namespace pp::transport {

struct Endpoint {
  net::Ipv4Addr ip;
  net::Port port = 0;
  auto operator<=>(const Endpoint&) const = default;
};

struct TcpOptions {
  std::uint32_t mss = 1400;
  std::uint32_t recv_window = 64 * 1024;
  std::uint32_t initial_cwnd_segments = 2;
  sim::Duration min_rto = sim::Time::ms(200);
  sim::Duration initial_rto = sim::Time::sec(1);
  sim::Duration max_rto = sim::Time::sec(60);
  // Owner consumes received bytes explicitly via consume(); until then they
  // occupy receive-buffer space and shrink the advertised window.
  bool manual_consume = false;
  // When the send gate is closed, defer RTO retransmissions until the gate
  // reopens instead of transmitting into a sleeping client's void.
  bool defer_rtx_when_gated = false;
};

enum class TcpState : std::uint8_t {
  Closed,
  SynSent,
  SynRcvd,
  Established,
  FinWait,    // our FIN sent, not yet acked
  CloseWait,  // remote FIN received, we have not closed yet
  LastAck,    // remote FIN received and our FIN sent
  Done,
};

const char* to_string(TcpState s);

struct TcpStats {
  std::uint64_t segments_sent = 0;
  std::uint64_t segments_received = 0;
  std::uint64_t bytes_sent = 0;       // payload bytes, incl. retransmissions
  std::uint64_t bytes_delivered = 0;  // in-order bytes handed to the app
  std::uint64_t retransmissions = 0;
  std::uint64_t fast_retransmits = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t dup_acks_received = 0;

  TcpStats& operator+=(const TcpStats& o) {
    segments_sent += o.segments_sent;
    segments_received += o.segments_received;
    bytes_sent += o.bytes_sent;
    bytes_delivered += o.bytes_delivered;
    retransmissions += o.retransmissions;
    fast_retransmits += o.fast_retransmits;
    timeouts += o.timeouts;
    dup_acks_received += o.dup_acks_received;
    return *this;
  }
};

class TcpConnection : public net::SegmentHandler {
 public:
  using SendFn = std::function<void(net::Packet)>;
  using DeliverFn = std::function<void(std::uint64_t bytes)>;
  using EventFn = std::function<void()>;
  using EgressHook = std::function<void(net::Packet&)>;

  // `passive` connections wait for a SYN; active ones send it via connect().
  TcpConnection(sim::Simulator& sim, SendFn send, Endpoint local,
                Endpoint remote, TcpOptions opts, bool passive);
  ~TcpConnection() override;

  TcpConnection(const TcpConnection&) = delete;
  TcpConnection& operator=(const TcpConnection&) = delete;

  // -- Application interface --------------------------------------------------
  void connect();
  // Append bytes to the send stream.
  void send(std::uint64_t bytes);
  // Half-close: FIN once all queued bytes are sent and acked.
  void close();
  // Free receive-buffer space (manual_consume mode only).
  void consume(std::uint64_t bytes);

  void set_on_deliver(DeliverFn fn) { on_deliver_ = std::move(fn); }
  void set_on_established(EventFn fn) { on_established_ = std::move(fn); }
  void set_on_closed(EventFn fn) { on_closed_ = std::move(fn); }
  // Fires once when the peer's FIN is consumed (stream fully received).
  void set_on_remote_fin(EventFn fn) { on_remote_fin_ = std::move(fn); }

  // -- Proxy hooks -------------------------------------------------------------
  void set_send_gate(bool open);
  void set_egress_hook(EgressHook h) { egress_hook_ = std::move(h); }

  // Record RTO-stall timeline events.  The retransmission and timeout
  // counts live in stats(); the proxy publishes its splices' totals.
  void set_obs(obs::Hook hook);

  // -- Introspection -----------------------------------------------------------
  TcpState state() const { return state_; }
  bool established() const { return state_ == TcpState::Established; }
  bool done() const { return state_ == TcpState::Done; }
  Endpoint local() const { return local_; }
  Endpoint remote() const { return remote_; }
  // Stream bytes queued by the app but not yet transmitted the first time.
  std::uint64_t bytes_unsent() const { return app_limit_ - snd_nxt_data_; }
  // Total bytes the app has ever queued via send() (sent or not).
  std::uint64_t bytes_submitted() const { return app_limit_; }
  // close() requested but the FIN has not gone out yet (e.g. gated).
  bool close_pending() const { return fin_pending_ && !fin_sent_; }
  // FIN sent but not yet acknowledged (it may need a retransmission slot).
  bool fin_unacked() const { return fin_sent_ && !fin_acked_; }
  std::uint64_t bytes_in_flight() const { return snd_nxt_data_ - snd_una_data_; }
  std::uint64_t bytes_acked() const { return snd_una_data_; }
  std::uint64_t cwnd() const { return cwnd_; }
  std::uint64_t peer_window() const { return peer_wnd_; }
  sim::Duration srtt() const { return srtt_; }
  const TcpStats& stats() const { return stats_; }

  // Flow key of segments this connection *receives* (remote -> local).
  net::FlowKey incoming_flow() const {
    return {remote_.ip, remote_.port, local_.ip, local_.port,
            net::Protocol::Tcp};
  }

  // net::SegmentHandler.
  void on_segment(const net::Packet& pkt) override;

 private:
  // Data sequence space: byte 0 is the first payload byte; SYN and FIN are
  // tracked out-of-band (syn consumes wire seq 0, data byte k is wire seq
  // k+1).  We keep everything in *data* coordinates internally.
  void emit(std::uint64_t seq, std::uint32_t len, bool syn, bool fin,
            bool is_rtx);
  void send_ack();
  void try_send();
  void maybe_send_fin();
  void arm_rtx_timer();
  void cancel_rtx_timer();
  void on_rtx_timeout();
  void retransmit_one();
  void enter_established();
  void finish_if_done();
  void process_ack(const net::Packet& pkt);
  void process_data(const net::Packet& pkt);
  std::uint32_t advertised_window() const;

  sim::Simulator& sim_;
  SendFn send_fn_;
  Endpoint local_;
  Endpoint remote_;
  TcpOptions opts_;
  TcpState state_;

  // Sender.
  std::uint64_t app_limit_ = 0;     // total bytes the app has queued
  std::uint64_t snd_una_data_ = 0;  // first unacked data byte
  std::uint64_t snd_nxt_data_ = 0;  // next new data byte to send
  std::uint64_t cwnd_;
  std::uint64_t ssthresh_;
  std::uint64_t peer_wnd_;
  std::uint32_t dup_acks_ = 0;
  bool in_recovery_ = false;
  std::uint64_t recover_point_ = 0;
  bool syn_acked_ = false;
  bool fin_pending_ = false;
  bool fin_sent_ = false;
  bool fin_acked_ = false;
  bool gate_open_ = true;
  bool rtx_deferred_ = false;

  // RTT estimation (Karn: only segments never retransmitted are timed).
  sim::Duration srtt_ = sim::Time::zero();
  sim::Duration rttvar_ = sim::Time::zero();
  sim::Duration rto_;
  bool rtt_valid_ = false;
  std::uint64_t timed_seq_ = 0;  // data seq whose ack completes the sample
  sim::Time timed_sent_at_;
  bool timing_ = false;

  sim::EventHandle rtx_timer_;

  // Receiver.
  std::uint64_t rcv_nxt_data_ = 0;  // next expected data byte
  bool syn_received_ = false;
  bool fin_received_ = false;
  std::uint64_t fin_seq_data_ = 0;  // data-length of remote stream when FIN set
  std::map<std::uint64_t, std::uint64_t> ooo_;  // seq -> end (data coords)
  std::uint64_t unconsumed_ = 0;  // delivered but not consumed (manual mode)

  DeliverFn on_deliver_;
  EventFn on_established_;
  EventFn on_closed_;
  EventFn on_remote_fin_;
  EgressHook egress_hook_;
  TcpStats stats_;
  bool closed_notified_ = false;

  obs::Hook obs_;
};

// -- Node conveniences ---------------------------------------------------------

// Open an active connection from `node` to (dst, dst_port).  Registers the
// demux entry; the returned connection unregisters itself on destruction
// if you call detach(), otherwise the caller must keep `node` alive.
std::unique_ptr<TcpConnection> tcp_connect(net::Node& node, net::Ipv4Addr dst,
                                           net::Port dst_port,
                                           TcpOptions opts = {});

// Listening server socket on a node: accepts connections, owns them.
class TcpServer {
 public:
  // Called when a connection is accepted (after SYN).
  using AcceptFn = std::function<void(TcpConnection&)>;

  TcpServer(net::Node& node, net::Port port, TcpOptions opts = {});
  ~TcpServer();

  TcpServer(const TcpServer&) = delete;
  TcpServer& operator=(const TcpServer&) = delete;

  void set_on_accept(AcceptFn fn) { on_accept_ = std::move(fn); }

  std::size_t connection_count() const { return conns_.size(); }
  // Destroy connections that have fully closed (frees demux entries).
  void reap_done();

 private:
  net::Node& node_;
  net::Port port_;
  TcpOptions opts_;
  AcceptFn on_accept_;
  std::vector<std::unique_ptr<TcpConnection>> conns_;
};

}  // namespace pp::transport
