#include "exp/digest.hpp"

namespace pp::exp {

namespace {

std::uint64_t fold_string(std::uint64_t h, const std::string& s) {
  h = fnv1a_u64(h, s.size());
  for (char c : s) h = fnv1a_byte(h, static_cast<std::uint8_t>(c));
  return h;
}

// "sim."-prefixed counters are event-engine meta-metrics (event and slab
// accounting, see Testbed::publish_metrics).  They describe how the
// engine executed a run, not what the simulated system did, and they shift
// with engine internals (cancellation pruning, slab sizing) — so the
// behavioral fingerprint must not fold them in.
bool engine_meta_metric(const std::string& name) {
  return name.rfind("sim.", 0) == 0;
}

}  // namespace

std::uint64_t timeline_digest(const obs::Timeline& tl) {
  std::uint64_t h = tl.digest();
  h = fnv1a_u64(h, tl.size() + tl.dropped());
  // The closing zero word keeps the layout of the pinned digests, which
  // folded the retained size and a dropped count (zero for every pinned
  // run) here.
  return fnv1a_u64(h, 0);
}

std::uint64_t metrics_digest(const obs::MetricsRegistry& m) {
  std::uint64_t h = kFnvOffset;
  for (const auto& [name, ctr] : m.counters()) {
    if (engine_meta_metric(name)) continue;
    h = fold_string(h, name);
    h = fnv1a_u64(h, ctr.value());
  }
  for (const auto& [name, hist] : m.histograms()) {
    h = fold_string(h, name);
    h = fnv1a_u64(h, hist.count());
    h = fnv1a_u64(h, hist.sum());
  }
  return h;
}

std::uint64_t observer_digest(const obs::Observer& o) {
  std::uint64_t h = kFnvOffset;
  h = fnv1a_u64(h, timeline_digest(o.timeline));
  h = fnv1a_u64(h, metrics_digest(o.metrics));
  return h;
}

std::uint64_t run_digest(const ScenarioConfig& cfg) {
  ScenarioRun run{cfg};
  run.advance(run.horizon());
  run.finish();
  const auto obs = run.bed().observer();
  return obs ? observer_digest(*obs) : 0;
}

}  // namespace pp::exp
