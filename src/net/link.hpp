// Wired link models: a serializing unidirectional channel, a full-duplex
// point-to-point link, and a switched Ethernet LAN with a designated
// default (bridge) port for transparent-proxy topologies.
//
// A channel delivers each packet with an event at its arrival time, except
// on the ingress of a sink that reads lazily (the buffering proxy's bridge
// port): there, datagrams from paced sources arrive without events and wait
// with their arrival times until the sink takes them (see Channel::arm).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "net/addr.hpp"
#include "net/chunk.hpp"
#include "net/fifo_ring.hpp"
#include "net/ip_index.hpp"
#include "net/packet.hpp"
#include "sim/simulator.hpp"

namespace pp::net {

// Anything that can accept a packet.
class PacketSink {
 public:
  virtual ~PacketSink() = default;
  virtual void handle_packet(Packet pkt) = 0;
  // Batched delivery of a burst chain (one scheduled slot's worth of
  // datagrams for one client).  Sinks on the burst path override this to
  // keep the chain intact per hop; the default unbundles for sinks that
  // only understand single packets.
  virtual void handle_burst(ChunkQueue burst) {
    while (!burst.empty()) handle_packet(burst.pop_packet());
  }
};

// A sender whose sends are known ahead, such as a video stream replaying
// its trace.  Instead of a timer per send it arms a Channel with its next
// due time, and the channel calls emit() when it pulls that send.
class PacedSource {
 public:
  virtual ~PacedSource() = default;
  // Send what was due at `due` through Channel::transmit_paced, then arm
  // the next send, if any, no earlier than `due`.
  virtual void emit(sim::Time due) = 0;
};

struct WiredParams {
  double rate_bps = 100e6;                       // Fast Ethernet
  sim::Duration propagation = sim::Time::us(5);  // cable + switch latency
  std::uint32_t framing_bytes = 38;              // preamble+MAC+FCS+IFG
  std::uint32_t queue_limit_bytes = 1 << 20;     // drop-tail beyond this
};

// One direction of a wired link: serializes transmissions at `rate_bps`,
// models a drop-tail egress queue, then delivers after propagation delay.
class Channel {
 public:
  Channel(sim::Simulator& sim, WiredParams params, PacketSink& sink);

  // Queue a packet for transmission; returns false if dropped (queue full).
  // Armed paced sends due before now go first.
  bool transmit(Packet pkt);

  // Queue a whole burst chain as one reservation: one admission check and
  // one serialization/delivery event for the chain instead of N.  All-or-
  // nothing at admission (a slot's burst is one unit of work); the chain
  // arrives at the sink via handle_burst.  Empty bursts are a no-op.
  bool transmit_burst(ChunkQueue burst);

  // -- Pacing ------------------------------------------------------------------
  // The ingress of a sink that reads lazily.  Its paced sources arm their
  // sends here instead of scheduling timers, and the channel pulls them in
  // (due, arm order) order, the order their timers would have fired:
  // before every transmit() and whenever the reader calls pull().  A pulled
  // send is transmitted as of its due time (transmit_paced) and gets no
  // delivery event: the datagram waits in the channel with its arrival
  // time until the reader takes it (take_arrived).  The reader must take
  // in everything that has arrived before it acts on what it holds.
  // Sources must outlive the channel's last pull.
  void arm(PacedSource& src, sim::Time due);
  // Emit every armed send due before `limit`.
  void pull(sim::Time limit);
  // A pulled send, transmitted as of `at` (its due time, <= now).  Returns
  // false if dropped.
  bool transmit_paced(Packet pkt, sim::Time at);
  // Pop the oldest paced datagram that arrived before `limit` into `pkt`
  // and its arrival time into `arrived`; false when there is none.
  bool take_arrived(sim::Time limit, Packet& pkt, sim::Time& arrived);

  // Fault injection: while down, every transmit is dropped on the floor
  // (counted in packets_dropped).  In-flight packets still arrive — a link
  // flap severs new transmissions, it does not claw bits off the wire.
  void set_down(bool down) { down_ = down; }
  bool down() const { return down_; }

  std::uint64_t packets_sent() const { return packets_sent_; }
  std::uint64_t packets_dropped() const { return packets_dropped_; }
  // Bytes currently waiting (committed but not yet delivered).  A paced
  // datagram leaves the count at the first transmit after its arrival, or
  // when the reader takes it.
  std::uint64_t backlog_bytes() const { return backlog_bytes_; }

 private:
  struct Armed {
    sim::Time due;
    std::uint64_t seq;  // arm order breaks ties in due
    PacedSource* src;
  };
  // A pulled datagram waiting for the reader: the flat packet and its
  // arrival time, nothing on the heap.
  struct Held {
    Packet pkt;
    sim::Time arrival;
  };
  static_assert(sizeof(Held) <= 80, "Channel::Held outgrew 80 bytes");

  sim::Duration tx_time(const Packet& pkt) const;
  // Drop-tail admission of `n` packets (`wire` bytes) offered at `at`;
  // on success reserves the wire and returns the arrival time.
  bool admit(std::uint64_t wire, std::uint64_t n, sim::Duration tx,
             sim::Time at, sim::Time& arrival);

  sim::Simulator& sim_;
  WiredParams params_;
  PacketSink& sink_;
  sim::Time busy_until_ = sim::Time::zero();
  // Packets and burst chains on the wire.  Every delivery lands at
  // busy_until_ + propagation, so each ring's deliveries fire in its push
  // order (see net/fifo_ring.hpp).
  FifoRing<Packet> in_flight_;
  FifoRing<ChunkQueue> bursts_in_flight_;
  // Pacing: armed sends (a min-heap on (due, seq)) and the pulled
  // datagrams, in arrival order, that the reader has not taken yet.  The
  // last `unretired_` of them still count in backlog_bytes_.
  std::vector<Armed> armed_;
  std::uint64_t arm_seq_ = 0;
  sim::Time pulled_ = sim::Time::zero();  // due of the last pulled send
  FifoRing<Held> held_;
  std::size_t unretired_ = 0;
  bool down_ = false;
  std::uint64_t backlog_bytes_ = 0;
  std::uint64_t packets_sent_ = 0;
  std::uint64_t packets_dropped_ = 0;
};

// Full-duplex point-to-point link between two sinks.
class PointToPointLink {
 public:
  PointToPointLink(sim::Simulator& sim, WiredParams params, PacketSink& a,
                   PacketSink& b)
      : a_to_b_{sim, params, b}, b_to_a_{sim, params, a} {}

  bool send_a_to_b(Packet pkt) { return a_to_b_.transmit(std::move(pkt)); }
  bool send_burst_a_to_b(ChunkQueue burst) {
    return a_to_b_.transmit_burst(std::move(burst));
  }

  Channel& a_to_b() { return a_to_b_; }
  Channel& b_to_a() { return b_to_a_; }

 private:
  Channel a_to_b_;
  Channel b_to_a_;
};

// Adapts a Channel (transmit side) to the PacketSink interface, so devices
// that push to a sink can feed a serializing channel.
class ChannelSink : public PacketSink {
 public:
  explicit ChannelSink(Channel& ch) : ch_{ch} {}
  void handle_packet(Packet pkt) override { ch_.transmit(std::move(pkt)); }

 private:
  Channel& ch_;
};

// A switched LAN: each attached port gets its own egress channel.  Frames
// are forwarded to the port owning the destination IP; unknown destinations
// go to the default port (the transparent proxy's bridge port), which is
// how server->client traffic reaches the proxy.
class EthernetLan {
 public:
  using PortId = std::size_t;

  EthernetLan(sim::Simulator& sim, WiredParams params = {});

  // Attach a device; packets destined to it are delivered to `sink`.
  PortId attach(PacketSink& sink, Ipv4Addr ip);
  // Attach the bridge/default device (no IP of its own).
  PortId attach_default(PacketSink& sink);

  // Send from a port.  Returns false if the egress queue dropped it.
  bool send(PortId from, Packet pkt);

  // The egress channel toward a port.
  Channel& egress(PortId port) { return *egress_[port]; }

 private:
  PortId do_attach(PacketSink& sink);

  sim::Simulator& sim_;
  WiredParams params_;
  std::vector<std::unique_ptr<Channel>> egress_;  // one per port
  std::vector<Ipv4Addr> port_ip_;  // per port; unset for the default port
  IpIndex by_ip_;                  // ports attached with an IP
  PortId default_port_ = static_cast<PortId>(-1);
};

}  // namespace pp::net
