// Deterministic iteration over unordered associative containers.
//
// Range-for over an unordered_map visits elements in bucket order, which
// depends on the hash function, the bucket count, and the insertion
// history — none of which are part of the simulation's deterministic
// contract (net::set_hash_salt exists precisely to perturb them).  Any
// loop whose side effects depend on visit order must iterate through one
// of these helpers instead; pp_analyze rejects direct range-for over
// unordered containers outside an explicit allowlist.
//
// The helpers materialize a vector of pointers and sort it by key, so the
// container itself is not copied and values can be mutated through the
// returned references.
#pragma once

#include <algorithm>
#include <vector>

namespace pp::check {

// Pointers to the container's value_type (the pair), sorted by key.
// Usage:  for (auto* kv : check::sorted_items(map_)) use(kv->first, kv->second);
template <typename Map>
std::vector<typename Map::value_type*> sorted_items(Map& m) {
  std::vector<typename Map::value_type*> items;
  items.reserve(m.size());
  for (auto it = m.begin(); it != m.end(); ++it) items.push_back(&*it);
  std::sort(items.begin(), items.end(),
            [](const auto* a, const auto* b) { return a->first < b->first; });
  return items;
}

template <typename Map>
std::vector<const typename Map::value_type*> sorted_items(const Map& m) {
  std::vector<const typename Map::value_type*> items;
  items.reserve(m.size());
  for (auto it = m.begin(); it != m.end(); ++it) items.push_back(&*it);
  std::sort(items.begin(), items.end(),
            [](const auto* a, const auto* b) { return a->first < b->first; });
  return items;
}

// Just the keys, sorted.  For unordered_set, or when the loop body mutates
// the container (pointers into a rehashed map would dangle; keys copied
// here stay valid).
template <typename Container>
std::vector<typename Container::key_type> sorted_keys(const Container& c) {
  std::vector<typename Container::key_type> keys;
  keys.reserve(c.size());
  for (auto it = c.begin(); it != c.end(); ++it) {
    if constexpr (requires { it->first; }) {
      keys.push_back(it->first);
    } else {
      keys.push_back(*it);
    }
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

}  // namespace pp::check
