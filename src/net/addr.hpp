// Network addressing primitives: IPv4 addresses, ports, protocol, flow keys.
#pragma once

#include <compare>
#include <cstdint>
#include <functional>
#include <ostream>
#include <string>

namespace pp::net {

class Ipv4Addr {
 public:
  constexpr Ipv4Addr() = default;
  constexpr explicit Ipv4Addr(std::uint32_t raw) : raw_{raw} {}
  static constexpr Ipv4Addr octets(std::uint8_t a, std::uint8_t b,
                                   std::uint8_t c, std::uint8_t d) {
    return Ipv4Addr{(std::uint32_t{a} << 24) | (std::uint32_t{b} << 16) |
                    (std::uint32_t{c} << 8) | std::uint32_t{d}};
  }
  // Limited broadcast (255.255.255.255), used for schedule messages.
  static constexpr Ipv4Addr broadcast() { return Ipv4Addr{0xffffffffu}; }

  constexpr std::uint32_t raw() const { return raw_; }
  constexpr bool is_broadcast() const { return raw_ == 0xffffffffu; }
  constexpr auto operator<=>(const Ipv4Addr&) const = default;

  std::string str() const;

 private:
  std::uint32_t raw_ = 0;
};

std::ostream& operator<<(std::ostream& os, Ipv4Addr a);

using Port = std::uint16_t;

enum class Protocol : std::uint8_t { Udp, Tcp };

inline const char* to_string(Protocol p) {
  return p == Protocol::Udp ? "UDP" : "TCP";
}

// Directed 5-tuple identifying one direction of a flow.
struct FlowKey {
  Ipv4Addr src;
  Port src_port = 0;
  Ipv4Addr dst;
  Port dst_port = 0;
  Protocol proto = Protocol::Udp;

  auto operator<=>(const FlowKey&) const = default;

  FlowKey reversed() const { return {dst, dst_port, src, src_port, proto}; }
  std::string str() const;
};

// Global salt mixed into every unordered-container hash below.  Simulation
// behaviour must not depend on unordered iteration order, and this is how
// that contract is enforced: the determinism harness runs each scenario
// under two different salts — which permute bucket order everywhere — and
// diffs the resulting replay digests (see exp::run_digest).  Defaults to
// 0; tests and tools set it before building any topology.
std::uint64_t hash_salt();
void set_hash_salt(std::uint64_t salt);

// splitmix64 finalizer: full-avalanche mix so salting perturbs every bit.
inline std::uint64_t mix_hash(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

struct FlowKeyHash {
  std::size_t operator()(const FlowKey& k) const {
    std::uint64_t h = hash_salt() ^ k.src.raw();
    h = h * 0x9e3779b97f4a7c15ULL + k.dst.raw();
    h = h * 0x9e3779b97f4a7c15ULL + (std::uint64_t{k.src_port} << 17);
    h = h * 0x9e3779b97f4a7c15ULL + (std::uint64_t{k.dst_port} << 1);
    h = h * 0x9e3779b97f4a7c15ULL + static_cast<std::uint64_t>(k.proto);
    return static_cast<std::size_t>(mix_hash(h));
  }
};

struct Ipv4AddrHash {
  std::size_t operator()(const Ipv4Addr& a) const {
    return static_cast<std::size_t>(mix_hash(hash_salt() ^ a.raw()));
  }
};

}  // namespace pp::net
