// UDP socket bound to a node port.
#pragma once

#include <cstdint>
#include <functional>

#include "net/node.hpp"
#include "net/packet.hpp"

namespace pp::transport {

class UdpSocket : public net::DatagramHandler {
 public:
  using ReceiveFn = std::function<void(const net::Packet&)>;

  // Binds `port` on `node` (0 => ephemeral).  Unbinds on destruction.
  UdpSocket(net::Node& node, net::Port port = 0);
  ~UdpSocket() override;

  UdpSocket(const UdpSocket&) = delete;
  UdpSocket& operator=(const UdpSocket&) = delete;

  net::Port port() const { return port_; }

  void set_receive_fn(ReceiveFn fn) { receive_ = std::move(fn); }

  // Send `bytes` of payload with no app header.
  void send_to(net::Ipv4Addr dst, net::Port dst_port, std::uint32_t bytes);
  // The datagram send_to would hand the node, counted as sent, for a
  // sender that sets its app header or hands it to its first hop itself
  // (a paced source).
  net::Packet datagram(net::Ipv4Addr dst, net::Port dst_port,
                       std::uint32_t bytes);

  // net::DatagramHandler.
  void on_datagram(const net::Packet& pkt) override;

  std::uint64_t datagrams_sent() const { return sent_; }
  std::uint64_t datagrams_received() const { return received_; }

 private:
  net::Node& node_;
  net::Port port_;
  ReceiveFn receive_;
  std::uint64_t sent_ = 0;
  std::uint64_t received_ = 0;
};

}  // namespace pp::transport
