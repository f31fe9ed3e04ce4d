#include "proxy/client_table.hpp"

namespace pp::proxy {

ClientId ClientTable::ensure(net::Ipv4Addr ip) {
  const ClientId found = find(ip);
  if (found != kNoClient) return found;
  const auto id = static_cast<ClientId>(ip_.size());
  ip_.push_back(ip);
  pkt_q_.emplace_back();
  pkt_q_.back().set_pool(pool_);
  splices_.emplace_back();
  membership_.push_back(Membership::Joined);
  leave_seq_.push_back(0);
  drain_timer_.emplace_back();
  index_.insert(id, [this](ClientId i) { return ip_[i]; });
  return id;
}

}  // namespace pp::proxy
