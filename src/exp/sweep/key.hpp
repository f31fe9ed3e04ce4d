// Content-addressed cache keys for scenario results.
//
// A scenario run is a pure function of its ScenarioConfig (the simulator
// is bit-deterministic, and the replay digests of src/exp/digest.hpp prove
// it), so a canonical serialization of the config is an exact content key
// for the result.  `canonical_config` renders every field — in a fixed
// order, with doubles in hexfloat so the text round-trips bit-exactly —
// and `config_key` folds that text plus a salt through FNV-1a.
//
// The salt is the invalidation lever:
//   * kCodeVersionSalt bakes in the sweep-cache schema AND the simulation
//     behaviour version.  Bump it in any PR that changes what a scenario
//     produces (new event ordering, recalibrated models, new stats) —
//     every cached result is stale the moment behaviour shifts.
//   * Options::salt (see sweep.hpp) lets tests and tools force a cold run
//     without touching the cache directory.
//
// Guard rail: canonical_config must cover every ScenarioConfig field, or
// two configs differing in the missed field would collide on one cache
// entry.  The static_assert below pins sizeof(ScenarioConfig) on the
// toolchain we build on; when adding a field it fires, reminding you to
// extend the serialization and bump kCodeVersionSalt.
#pragma once

#include <cstdint>
#include <string>

#include "exp/digest.hpp"
#include "exp/multicell.hpp"
#include "exp/scenario.hpp"

namespace pp::exp::sweep {

// Schema+behaviour version; bump on any change to canonical_config's
// format, RunRecord serialization, or simulation semantics.
// 0002: event-engine overhaul (pooled callbacks, 4-ary heap) — digests are
// unchanged by design, but perf baselines must be re-measured cold.
// 0003: channel-quality subsystem + policy zoo — new canonical_config
// fields (channel.*), new RunRecord columns (mean_delay_ms/delay_samples).
// 0004: client churn lifecycle — new canonical_config fields
// (measured_goodput, fault.storm.*), new RunRecord assoc counters.
// 0005: chunk-queue data path — batched burst emission changes delivery
// timing (one AP delay draw per burst, frames land inside one reservation)
// and RNG draw order; replay digests re-pinned.
// 0006: multi-cell scale-out — jitter-derived early-wake guard shifts every
// adaptive-compensation run (new canonical_config field jitter_guard);
// measured_goodput composes with all demand-driven policies; replay
// digests re-pinned.
// 0007: one frame-loss model — Gilbert-Elliott moves from the fault layer
// to the ChannelSpec::two_state preset (per-client streams, 20 ms tick);
// fault.ge.* and channel.{per_client_streams,tick_s} leave canonical_config;
// the fault RunRecord line drops ge_losses/base_losses/ge_bad_entries.
inline constexpr std::uint64_t kCodeVersionSalt = 0x7070'5357'0007ULL;

// Deterministic text rendering of every config field ("k=v\n" lines).
std::string canonical_config(const ScenarioConfig& cfg);

// Multi-cell fleets are pure functions of their MultiCellConfig the same
// way a scenario is of its ScenarioConfig (worker count provably does not
// matter — see tests/multicell_test.cpp), so cell count, backbone latency,
// and the cross-traffic shape are first-class sweep axes.  The canonical
// text embeds the per-cell scenario rendering, so any cell-level change
// propagates into the fleet key automatically.
std::string canonical_multicell_config(const MultiCellConfig& cfg);

// FNV-1a over salt + canonical text.
std::uint64_t config_key(const ScenarioConfig& cfg,
                         std::uint64_t salt = kCodeVersionSalt);
std::uint64_t multicell_key(const MultiCellConfig& cfg,
                            std::uint64_t salt = kCodeVersionSalt);

// Fixed-width lowercase hex, the cache's file-name form.
std::string key_hex(std::uint64_t key);

// A result can only be cached when it is fully captured by a RunRecord:
// retained traces and observer snapshots do not round-trip through the
// on-disk format, so those runs always execute live.
inline bool cacheable(const ScenarioConfig& cfg) {
  return !cfg.keep_trace && !cfg.keep_obs;
}

}  // namespace pp::exp::sweep
