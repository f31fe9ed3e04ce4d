#include "net/link.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "check/check.hpp"

namespace pp::net {

namespace {

// Heap order for armed paced sends: the earliest (due, seq) on top.
constexpr auto later = [](const auto& a, const auto& b) {
  return a.due != b.due ? a.due > b.due : a.seq > b.seq;
};

}  // namespace

Channel::Channel(sim::Simulator& sim, WiredParams params, PacketSink& sink)
    : sim_{sim}, params_{params}, sink_{sink} {}

sim::Duration Channel::tx_time(const Packet& pkt) const {
  const double bits =
      8.0 * static_cast<double>(pkt.wire_size() + params_.framing_bytes);
  return sim::Time::seconds(bits / params_.rate_bps);
}

bool Channel::admit(std::uint64_t wire, std::uint64_t n, sim::Duration tx,
                    sim::Time at, sim::Time& arrival) {
  // Paced datagrams that have arrived by `at` are off the wire, taken or
  // not.
  while (unretired_ > 0) {
    const Held& h = held_[held_.size() - unretired_];
    if (h.arrival > at) break;
    backlog_bytes_ -= h.pkt.wire_size();
    --unretired_;
  }
  if (down_ || backlog_bytes_ + wire > params_.queue_limit_bytes) {
    packets_dropped_ += n;
    return false;
  }
  const sim::Time start = busy_until_ > at ? busy_until_ : at;
  busy_until_ = start + tx;
  backlog_bytes_ += wire;
  packets_sent_ += n;
  arrival = busy_until_ + params_.propagation;
  return true;
}

bool Channel::transmit(Packet pkt) {
  pull(sim_.now());
  const std::uint32_t wire = pkt.wire_size();
  sim::Time arrival;
  if (!admit(wire, 1, tx_time(pkt), sim_.now(), arrival)) return false;
  in_flight_.push(std::move(pkt));
  sim_.at(arrival, [this, wire] {
    PP_CHECK_AT(backlog_bytes_ >= wire, "net.channel.backlog", sim_.now());
    backlog_bytes_ -= wire;
    sink_.handle_packet(in_flight_.pop());
  });
  return true;
}

bool Channel::transmit_burst(ChunkQueue burst) {
  if (burst.empty()) return true;
  // One admission check and one reservation for the whole chain.  Wire
  // bytes (not payload): the channel models a link budget.
  const std::uint64_t n = burst.packets();
  std::uint64_t wire = 0;
  burst.for_each([&wire](const Chunk& c) { wire += chunk_wire_bytes(c); });
  const double bits = 8.0 * static_cast<double>(
                                wire + n * std::uint64_t{params_.framing_bytes});
  sim::Time arrival;
  if (!admit(wire, n, sim::Time::seconds(bits / params_.rate_bps),
             sim_.now(), arrival))
    return false;  // the chain releases its views on destruction
  bursts_in_flight_.push(std::move(burst));
  sim_.at(arrival, [this, wire] {
    PP_CHECK_AT(backlog_bytes_ >= wire, "net.channel.backlog", sim_.now());
    backlog_bytes_ -= wire;
    sink_.handle_burst(bursts_in_flight_.pop());
  });
  return true;
}

void Channel::arm(PacedSource& src, sim::Time due) {
  // Behind the last pulled send, this one would go out of order.
  PP_CHECK_AT(due >= pulled_, "net.channel.arm_order", sim_.now());
  armed_.push_back(Armed{due, arm_seq_++, &src});
  std::push_heap(armed_.begin(), armed_.end(), later);
}

void Channel::pull(sim::Time limit) {
  while (!armed_.empty() && armed_.front().due < limit) {
    std::pop_heap(armed_.begin(), armed_.end(), later);
    const Armed a = armed_.back();
    armed_.pop_back();
    pulled_ = a.due;
    a.src->emit(a.due);  // may arm the source's next send
  }
}

bool Channel::transmit_paced(Packet pkt, sim::Time at) {
  sim::Time arrival;
  if (!admit(pkt.wire_size(), 1, tx_time(pkt), at, arrival)) return false;
  held_.push(Held{std::move(pkt), arrival});
  ++unretired_;
  return true;
}

bool Channel::take_arrived(sim::Time limit, Packet& pkt, sim::Time& arrived) {
  if (held_.empty() || held_[0].arrival >= limit) return false;
  if (unretired_ == held_.size()) {
    backlog_bytes_ -= held_[0].pkt.wire_size();
    --unretired_;
  }
  Held h = held_.pop();
  pkt = std::move(h.pkt);
  arrived = h.arrival;
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
