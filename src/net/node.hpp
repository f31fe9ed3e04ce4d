// A host's network stack: owns the IP identity, demultiplexes incoming
// packets to UDP/TCP handlers, and hands outgoing packets to a transmitter
// (a LAN port, a point-to-point link, or a wireless interface).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>

#include "net/addr.hpp"
#include "net/link.hpp"
#include "net/packet.hpp"
#include "sim/simulator.hpp"

namespace pp::net {

// Implemented by TCP connections.
class SegmentHandler {
 public:
  virtual ~SegmentHandler() = default;
  virtual void on_segment(const Packet& pkt) = 0;
};

// Implemented by UDP sockets.
class DatagramHandler {
 public:
  virtual ~DatagramHandler() = default;
  virtual void on_datagram(const Packet& pkt) = 0;
};

// Accepts incoming TCP connections on a listening port.  Returns the
// handler for the new connection (which the node registers), or nullptr
// to refuse.
// pp-lint: allow(hot-path-alloc): constructed once per listener at wiring
using TcpAcceptFn = std::function<SegmentHandler*(const Packet& syn)>;

class Node : public PacketSink {
 public:
  Node(sim::Simulator& sim, Ipv4Addr ip, std::string name);

  sim::Simulator& sim() { return sim_; }
  Ipv4Addr ip() const { return ip_; }
  const std::string& name() const { return name_; }

  // pp-lint: allow(hot-path-alloc): constructed once at topology wiring
  void set_transmitter(std::function<void(Packet)> tx) { tx_ = std::move(tx); }

  // Stamp sent_at and hand to the transmitter.
  void send(Packet pkt);

  // Allocate an ephemeral source port.
  Port alloc_port() { return next_port_++; }

  // -- Demux registration ----------------------------------------------------
  void bind_udp(Port port, DatagramHandler& h);
  void unbind_udp(Port port);
  // Key is the flow as seen on incoming packets: (remote -> local).
  void register_tcp(const FlowKey& incoming, SegmentHandler& h);
  void unregister_tcp(const FlowKey& incoming);
  void listen_tcp(Port port, TcpAcceptFn accept);
  void unlisten_tcp(Port port);

  // PacketSink.
  void handle_packet(Packet pkt) override;

  std::uint64_t packets_received() const { return packets_received_; }
  std::uint64_t packets_unrouted() const { return packets_unrouted_; }

 private:
  struct Demux {
    std::unordered_map<Port, DatagramHandler*> udp;
    std::unordered_map<FlowKey, SegmentHandler*, FlowKeyHash> tcp;
    std::unordered_map<Port, TcpAcceptFn> listeners;
  };
  Demux& demux();  // allocates demux_ on first use

  sim::Simulator& sim_;
  Ipv4Addr ip_;
  std::string name_;
  // pp-lint: allow(hot-path-alloc): assigned once; invocation does not allocate
  std::function<void(Packet)> tx_;
  Port next_port_ = 40000;
  // Allocated by the first bind, register or listen: an idle client never
  // binds a socket, and at fleet scale three empty maps per node would
  // cost more than the rest of its stack.
  std::unique_ptr<Demux> demux_;
  std::uint64_t packets_received_ = 0;
  std::uint64_t packets_unrouted_ = 0;
};

}  // namespace pp::net
