// IpIndex: point lookups from an IPv4 address to a dense id, for tables
// that already keep each id's address in a column of their own (the
// wireless medium's stations, the proxy's ClientTable, the LAN's ports).
//
// Open addressing with linear probing over a power-of-two array of 4-byte
// ids, kept at most half full.  The index stores no keys: every call takes
// `key_of`, which maps an id to its address in the owner's column.  A
// 6,250-client cell therefore pays 4 bytes a slot, not the 32-byte heap
// node per entry of a std::unordered_map.  The hash is salted
// (Ipv4AddrHash) and the index is only ever probed, never iterated, so its
// slot layout cannot reach simulation behaviour.
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "net/addr.hpp"

namespace pp::net {

class IpIndex {
 public:
  static constexpr std::uint32_t kNone = 0xFFFF'FFFFu;

  // The id whose key_of(id) == ip, or kNone.
  template <typename KeyOf>
  std::uint32_t find(Ipv4Addr ip, const KeyOf& key_of) const {
    if (slots_.empty()) return kNone;
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t h = Ipv4AddrHash{}(ip) & mask;; h = (h + 1) & mask) {
      const std::uint32_t id = slots_[h];
      if (id == kNone || key_of(id) == ip) return id;
    }
  }

  // Enter `id` under key_of(id), which must not be in the index yet.
  template <typename KeyOf>
  void insert(std::uint32_t id, const KeyOf& key_of) {
    if (2 * (std::size_t{count_} + 1) > slots_.size()) {
      const std::vector<std::uint32_t> old = std::move(slots_);
      slots_.assign(std::max<std::size_t>(16, 2 * old.size()), kNone);
      for (const std::uint32_t o : old)
        if (o != kNone) place(o, key_of);
    }
    place(id, key_of);
    ++count_;
  }

 private:
  template <typename KeyOf>
  void place(std::uint32_t id, const KeyOf& key_of) {
    const std::size_t mask = slots_.size() - 1;
    std::size_t h = Ipv4AddrHash{}(key_of(id)) & mask;
    while (slots_[h] != kNone) h = (h + 1) & mask;
    slots_[h] = id;
  }

  std::vector<std::uint32_t> slots_;  // ids; kNone marks a free slot
  std::uint32_t count_ = 0;
};

}  // namespace pp::net
