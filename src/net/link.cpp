#include "net/link.hpp"

#include <stdexcept>
#include <utility>

#include "check/check.hpp"

namespace pp::net {

Channel::Channel(sim::Simulator& sim, WiredParams params, PacketSink& sink)
    : sim_{sim}, params_{params}, sink_{sink} {}

sim::Duration Channel::tx_time(const Packet& pkt) const {
  const double bits =
      8.0 * static_cast<double>(pkt.wire_size() + params_.framing_bytes);
  return sim::Time::seconds(bits / params_.rate_bps);
}

bool Channel::transmit(Packet pkt) {
  if (down_) {
    ++packets_dropped_;
    return false;
  }
  if (backlog_bytes_ + pkt.wire_size() > params_.queue_limit_bytes) {
    ++packets_dropped_;
    return false;
  }
  const sim::Time start =
      busy_until_ > sim_.now() ? busy_until_ : sim_.now();
  const sim::Time done = start + tx_time(pkt);
  busy_until_ = done;
  backlog_bytes_ += pkt.wire_size();
  ++packets_sent_;
  const std::uint32_t wire = pkt.wire_size();
  in_flight_.push(std::move(pkt));
  sim_.at(done + params_.propagation, [this, wire] {
    PP_CHECK_AT(backlog_bytes_ >= wire, "net.channel.backlog", sim_.now());
    backlog_bytes_ -= wire;
    sink_.handle_packet(in_flight_.pop());
  });
  return true;
}

bool Channel::transmit_burst(ChunkQueue burst) {
  if (burst.empty()) return true;
  const std::uint64_t n = burst.packets();
  if (down_) {
    packets_dropped_ += n;
    return false;  // chain releases its views on destruction
  }
  // One admission check and one reservation for the whole chain.  Wire
  // bytes (not payload): the channel models a link budget.
  std::uint64_t wire = 0;
  burst.for_each([&wire](const Chunk& c) { wire += chunk_wire_bytes(c); });
  if (backlog_bytes_ + wire > params_.queue_limit_bytes) {
    packets_dropped_ += n;
    return false;
  }
  const sim::Time start = busy_until_ > sim_.now() ? busy_until_ : sim_.now();
  const double bits = 8.0 * static_cast<double>(
                                wire + n * std::uint64_t{params_.framing_bytes});
  const sim::Time done = start + sim::Time::seconds(bits / params_.rate_bps);
  busy_until_ = done;
  backlog_bytes_ += wire;
  packets_sent_ += n;
  bursts_in_flight_.push(std::move(burst));
  sim_.at(done + params_.propagation, [this, wire] {
    PP_CHECK_AT(backlog_bytes_ >= wire, "net.channel.backlog", sim_.now());
    backlog_bytes_ -= wire;
    sink_.handle_burst(bursts_in_flight_.pop());
  });
  return true;
}

EthernetLan::EthernetLan(sim::Simulator& sim, WiredParams params)
    : sim_{sim}, params_{params} {}

EthernetLan::PortId EthernetLan::do_attach(PacketSink& sink) {
  egress_.push_back(std::make_unique<Channel>(sim_, params_, sink));
  port_ip_.emplace_back();
  return egress_.size() - 1;
}

EthernetLan::PortId EthernetLan::attach(PacketSink& sink, Ipv4Addr ip) {
  const PortId port = do_attach(sink);
  port_ip_[port] = ip;
  const auto key_of = [this](std::uint32_t p) { return port_ip_[p]; };
  // The first port attached with an address keeps it.
  if (by_ip_.find(ip, key_of) == IpIndex::kNone)
    by_ip_.insert(static_cast<std::uint32_t>(port), key_of);
  return port;
}

EthernetLan::PortId EthernetLan::attach_default(PacketSink& sink) {
  default_port_ = do_attach(sink);
  return default_port_;
}

bool EthernetLan::send(PortId from, Packet pkt) {
  const std::uint32_t port =
      by_ip_.find(pkt.dst, [this](std::uint32_t p) { return port_ip_[p]; });
  PortId to;
  if (port != IpIndex::kNone) {
    to = port;
  } else if (default_port_ != static_cast<PortId>(-1)) {
    to = default_port_;
  } else {
    // pp-lint: allow(hot-path-alloc): error-path message; the throw aborts
    throw std::runtime_error("EthernetLan: no route for " + pkt.dst.str());
  }
  if (to == from) return false;  // would loop back; treat as misrouted
  return egress_[to]->transmit(std::move(pkt));
}

}  // namespace pp::net
