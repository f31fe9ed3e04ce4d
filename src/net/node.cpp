#include "net/node.hpp"

#include <stdexcept>
#include <utility>

namespace pp::net {

Node::Node(sim::Simulator& sim, Ipv4Addr ip, std::string name)
    : sim_{sim}, ip_{ip}, name_{std::move(name)} {}

void Node::send(Packet pkt) {
  // pp-lint: allow(hot-path-alloc): error-path message; the throw aborts
  if (!tx_) throw std::logic_error("Node " + name_ + ": no transmitter");
  pkt.sent_at = sim_.now();
  tx_(std::move(pkt));
}

Node::Demux& Node::demux() {
  if (!demux_) demux_ = std::make_unique<Demux>();
  return *demux_;
}

void Node::bind_udp(Port port, DatagramHandler& h) {
  if (!demux().udp.emplace(port, &h).second)
    // pp-lint: allow(hot-path-alloc): error-path message; the throw aborts
    throw std::logic_error(name_ + ": UDP port already bound");
}

void Node::unbind_udp(Port port) {
  if (demux_) demux_->udp.erase(port);
}

void Node::register_tcp(const FlowKey& incoming, SegmentHandler& h) {
  if (!demux().tcp.emplace(incoming, &h).second)
    // pp-lint: allow(hot-path-alloc): error-path message; the throw aborts
    throw std::logic_error(name_ + ": TCP flow already registered: " +
                           incoming.str());
}

void Node::unregister_tcp(const FlowKey& incoming) {
  if (demux_) demux_->tcp.erase(incoming);
}

void Node::listen_tcp(Port port, TcpAcceptFn accept) {
  demux().listeners[port] = std::move(accept);
}

void Node::unlisten_tcp(Port port) {
  if (demux_) demux_->listeners.erase(port);
}

void Node::handle_packet(Packet pkt) {
  ++packets_received_;
  if (!demux_) {  // nothing was ever bound
    ++packets_unrouted_;
    return;
  }
  Demux& d = *demux_;
  if (pkt.proto == Protocol::Udp) {
    auto it = d.udp.find(pkt.dst_port);
    if (it != d.udp.end()) {
      it->second->on_datagram(pkt);
    } else {
      ++packets_unrouted_;
    }
    return;
  }
  // TCP: established flows first, then listeners for SYNs.
  auto it = d.tcp.find(pkt.flow());
  if (it != d.tcp.end()) {
    it->second->on_segment(pkt);
    return;
  }
  if (pkt.tcp.syn && !pkt.tcp.ack_flag) {
    auto lit = d.listeners.find(pkt.dst_port);
    if (lit != d.listeners.end()) {
      if (SegmentHandler* h = lit->second(pkt)) {
        register_tcp(pkt.flow(), *h);
        h->on_segment(pkt);
        return;
      }
    }
  }
  ++packets_unrouted_;
}

}  // namespace pp::net
