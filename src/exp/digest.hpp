// Replay digests: order-sensitive FNV-1a fingerprints of an observed run.
//
// Two runs of the same scenario are bit-identical exactly when their
// digests match — the digest folds every recorded timeline event in order
// plus all metric counters and histogram buckets, so any divergence in
// event order, timing, or counts changes it.  The determinism harness runs each example
// scenario twice under different unordered-container hash salts
// (net::set_hash_salt) and diffs the digests; a mismatch means some code
// path let hash-bucket iteration order leak into simulation behaviour.
#pragma once

#include <cstdint>

#include "exp/scenario.hpp"
#include "obs/fnv.hpp"
#include "obs/observer.hpp"

namespace pp::exp {

using obs::fnv1a_byte;
using obs::fnv1a_u64;
using obs::kFnvOffset;

// Order-sensitive digest of every recorded timeline event, folded as it was
// recorded (Timeline::digest()), whether or not the timeline retained it.
std::uint64_t timeline_digest(const obs::Timeline& tl);
// Digest of all counters and histogram buckets (maps are ordered by name).
// Skips "sim."-prefixed engine meta-counters: they report how the event
// engine executed (allocation/pruning behaviour), not what the simulated
// system did, so they must not perturb the behavioral fingerprint.
std::uint64_t metrics_digest(const obs::MetricsRegistry& m);
// Combined digest of a run's full observer state.
std::uint64_t observer_digest(const obs::Observer& o);

// Run `cfg` to its horizon and digest the resulting observer; the digest
// does not depend on keep_obs.
// Returns 0 when observability is compiled out or detached.
std::uint64_t run_digest(const ScenarioConfig& cfg);

}  // namespace pp::exp
