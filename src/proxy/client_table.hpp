// Flat per-client state for the proxy (SoA).
//
// The proxy's per-client hot state used to live behind an
// unordered_map<ip, unique_ptr<ClientState>>: every SRP demand snapshot,
// burst open and membership check chased a hash bucket and a heap pointer
// per client.  At fleet scale (thousands of clients per cell) that walk is
// the schedule loop's cache budget.  ClientTable packs each logical field
// into its own flat array indexed by a dense ClientId, assigned in
// registration order:
//
//   * the demand snapshot scans columns sequentially (queue totals,
//     membership) instead of pointer-hopping;
//   * iteration order is id order == registration order, and each row's
//     splices are in creation order, so every walk is deterministic by
//     construction: nothing is sorted and no lint waiver is needed;
//   * Departed clients keep their row (queues empty), so sustained churn
//     reuses slots and ids stay dense and stable for a run's lifetime.
//
// The ip -> id index is the open-addressed net::IpIndex over the ip_
// column (4 bytes a slot).  It is salted but only ever probed — never
// iterated — so replay digests stay salt-invariant.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "net/addr.hpp"
#include "net/chunk.hpp"
#include "net/ip_index.hpp"
#include "sim/simulator.hpp"

namespace pp::proxy {

struct Splice;  // defined in transparent_proxy.hpp

using ClientId = std::uint32_t;
inline constexpr ClientId kNoClient = net::IpIndex::kNone;

// Association lifecycle as the proxy sees it.  Departed rows are retained
// (zero queued bytes, no splices) so churn never grows the table.
enum class Membership : std::uint8_t { Joined, Draining, Departed };

class ClientTable {
 public:
  explicit ClientTable(std::shared_ptr<net::ChunkPool> pool)
      : pool_{std::move(pool)} {}

  std::size_t size() const { return ip_.size(); }

  // Point lookup; kNoClient when the ip has never been seen.
  ClientId find(net::Ipv4Addr ip) const {
    return index_.find(ip, [this](ClientId id) { return ip_[id]; });
  }
  // Lookup-or-append: a fresh row starts Joined with an empty queue.
  ClientId ensure(net::Ipv4Addr ip);

  // -- Columns ---------------------------------------------------------------
  net::Ipv4Addr ip(ClientId id) const { return ip_[id]; }
  net::ChunkQueue& queue(ClientId id) { return pkt_q_[id]; }
  const net::ChunkQueue& queue(ClientId id) const { return pkt_q_[id]; }
  std::vector<Splice*>& splices(ClientId id) { return splices_[id]; }
  const std::vector<Splice*>& splices(ClientId id) const {
    return splices_[id];
  }
  Membership& membership(ClientId id) { return membership_[id]; }
  Membership membership(ClientId id) const { return membership_[id]; }
  std::uint64_t& leave_seq(ClientId id) { return leave_seq_[id]; }
  sim::EventHandle& drain_timer(ClientId id) { return drain_timer_[id]; }

 private:
  std::shared_ptr<net::ChunkPool> pool_;
  // One flat array per field, all indexed by ClientId.
  std::vector<net::Ipv4Addr> ip_;
  std::vector<net::ChunkQueue> pkt_q_;
  std::vector<std::vector<Splice*>> splices_;
  std::vector<Membership> membership_;
  std::vector<std::uint64_t> leave_seq_;
  std::vector<sim::EventHandle> drain_timer_;
  net::IpIndex index_;  // ip -> id over ip_
};

}  // namespace pp::proxy
