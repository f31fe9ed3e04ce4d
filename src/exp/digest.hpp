// Replay digests: order-sensitive fingerprints of a run.
//
// The replay digest is result_digest(): a fold of every field of the run's
// ScenarioResult — per-client energy, loss and counters, proxy, AP, medium
// and fault stats — which every build computes, with observability
// compiled in or out.  Two runs of a scenario did the same thing exactly
// when their digests match.  The determinism harness runs each example
// scenario twice under different unordered-container hash salts
// (net::set_hash_salt) and diffs the digests; a mismatch means some code
// path let hash-bucket iteration order leak into simulation behaviour.
//
// Engine work (events fired, cancelled, pruned) is deliberately left out:
// a change that removes events without changing any result must leave
// every digest where it was.
#pragma once

#include <bit>
#include <cstdint>

#include "exp/scenario.hpp"
#include "obs/observer.hpp"

namespace pp::exp {

// FNV-1a, widened to fold a 64-bit word per step: one xor and one multiply.
// Each step is a bijection of h, so changing any one field always moves
// the digest; the rotate carries high bits down, which a multiply alone
// never does (two sign flips would otherwise cancel).
inline constexpr std::uint64_t kDigestBasis = 1469598103934665603ULL;
inline std::uint64_t fold_word(std::uint64_t h, std::uint64_t v) {
  return std::rotl((h ^ v) * 1099511628211ULL, 29);
}

// Digest of every field of `r` but `trace` and `obs` (doubles by their bit
// pattern), so keep_trace and keep_obs do not move it.
std::uint64_t result_digest(const ScenarioResult& r);

// Digest of every counter's name and value (the map is ordered by name).
// Skips "sim."-prefixed engine meta-counters: they report how the event
// engine executed (allocation/pruning behaviour), not what the simulated
// system did.  Histograms and time gauges are left out: they exist only
// when the streams are attached (keep_obs), and a digest must not move
// with that choice.
std::uint64_t metrics_digest(const obs::MetricsRegistry& m);
// The observer's consistency check: its published counters.  Equal for two
// runs of a scenario however they were sliced and whether or not they
// attached the streams.
std::uint64_t observer_digest(const obs::Observer& o);

// Run `cfg` to its horizon and digest its result.
std::uint64_t run_digest(const ScenarioConfig& cfg);

}  // namespace pp::exp
