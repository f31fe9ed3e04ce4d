// FNV-1a 64-bit building blocks (offset basis / prime from the spec).
//
// The timeline folds its stream digest with these as events are recorded;
// exp/digest.hpp builds the replay digests from the same primitives.
#pragma once

#include <cstdint>

namespace pp::obs {

inline constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;
inline constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

inline std::uint64_t fnv1a_byte(std::uint64_t h, std::uint8_t b) {
  return (h ^ b) * kFnvPrime;
}
// Folds `v` as 8 fixed-width little-endian bytes (endianness-independent:
// bytes are extracted by shifting, not by reinterpreting memory).
inline std::uint64_t fnv1a_u64(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) h = fnv1a_byte(h, (v >> (8 * i)) & 0xff);
  return h;
}

}  // namespace pp::obs
