#include "transport/udp.hpp"

#include <utility>

namespace pp::transport {

UdpSocket::UdpSocket(net::Node& node, net::Port port)
    : node_{node}, port_{port == 0 ? node.alloc_port() : port} {
  node_.bind_udp(port_, *this);
}

UdpSocket::~UdpSocket() { node_.unbind_udp(port_); }

void UdpSocket::send_to(net::Ipv4Addr dst, net::Port dst_port,
                        std::uint32_t bytes) {
  node_.send(datagram(dst, dst_port, bytes));
}

net::Packet UdpSocket::datagram(net::Ipv4Addr dst, net::Port dst_port,
                                std::uint32_t bytes) {
  net::Packet pkt;
  pkt.src = node_.ip();
  pkt.src_port = port_;
  pkt.dst = dst;
  pkt.dst_port = dst_port;
  pkt.proto = net::Protocol::Udp;
  pkt.payload = bytes;
  ++sent_;
  return pkt;
}

void UdpSocket::on_datagram(const net::Packet& pkt) {
  ++received_;
  if (receive_) receive_(pkt);
}

}  // namespace pp::transport
