#include "exp/digest.hpp"

namespace pp::exp {

namespace {

// Folds fields one word each: integers widened (signed ones sign-extended),
// doubles by their bit pattern.
struct Fold {
  std::uint64_t h = kDigestBasis;

  Fold& operator()(std::uint64_t v) {
    h = fold_word(h, v);
    return *this;
  }
  Fold& operator()(std::int64_t v) {
    return (*this)(static_cast<std::uint64_t>(v));
  }
  Fold& operator()(int v) { return (*this)(static_cast<std::int64_t>(v)); }
  Fold& operator()(double v) {
    return (*this)(std::bit_cast<std::uint64_t>(v));
  }
};

// A new field must be folded below before these sizes can be updated.
static_assert(sizeof(ClientResult) == 224, "fold the new ClientResult field");
static_assert(sizeof(proxy::ProxyStats) == 21 * 8,
              "fold the new ProxyStats field");
static_assert(sizeof(fault::FaultStats) == 3 * 8,
              "fold the new FaultStats field");
static_assert(sizeof(ScenarioResult) == 280,
              "fold the new ScenarioResult field");

void fold_client(Fold& f, const ClientResult& c) {
  f(std::uint64_t{c.ip.raw()})(c.role)(c.saved_pct)(c.energy_mj)(c.naive_mj)(
      c.loss_pct)(c.packets_received)(c.packets_missed)(c.bytes_received)(
      c.schedules_received)(c.schedules_missed)(c.sleeps)(c.first_misses)(
      c.repeat_misses)(c.escalated_sleeps)(c.resyncs)(c.repeats_deduped)(
      c.coast_breaks)(c.app_loss_pct)(c.video_fidelity_final)(
      c.mean_delay_ms)(c.delay_samples)(c.page_time_ms)(c.pages_completed)(
      c.ftp_seconds)(c.app_bytes)(c.assoc_joins)(c.assoc_leaves)(
      c.assoc_retries);
}

void fold_proxy(Fold& f, const proxy::ProxyStats& s) {
  f(s.schedules_sent)(s.bursts_opened)(s.queued_packets)(s.burst_packets)(
      s.queue_drops)(s.udp_bytes_burst)(s.tcp_bytes_burst)(s.splices_created)(
      s.splices_closed)(s.empty_burst_markers)(s.unmatched_packets)(
      s.schedule_repeats_sent)(s.pauses)(s.joins)(s.leaves)(s.renegotiations)(
      s.assoc_rx)(s.bursts_skipped)(s.churn_drained_bytes)(
      s.churn_dropped_packets)(s.churn_dropped_bytes);
}

std::uint64_t fold_string(std::uint64_t h, const std::string& s) {
  h = fold_word(h, s.size());
  for (char c : s) h = fold_word(h, static_cast<std::uint8_t>(c));
  return h;
}

// "sim."-prefixed counters are event-engine meta-metrics (event and slab
// accounting, see Testbed::publish_metrics).  They describe how the
// engine executed a run, not what the simulated system did, and they shift
// with engine internals (cancellation pruning, slab sizing).
bool engine_meta_metric(const std::string& name) {
  return name.rfind("sim.", 0) == 0;
}

}  // namespace

std::uint64_t result_digest(const ScenarioResult& r) {
  Fold f;
  f(std::uint64_t{r.clients.size()});
  for (const ClientResult& c : r.clients) fold_client(f, c);
  fold_proxy(f, r.proxy_stats);
  f(r.horizon.count_ns())(r.ap_drops)(r.frames_on_air);
  f(r.fault_stats.windows_activated)(r.fault_stats.windows_recovered)(
      r.fault_stats.fade_losses);
  return f.h;
}

std::uint64_t metrics_digest(const obs::MetricsRegistry& m) {
  std::uint64_t h = kDigestBasis;
  for (const auto& [name, ctr] : m.counters()) {
    if (engine_meta_metric(name)) continue;
    h = fold_string(h, name);
    h = fold_word(h, ctr.value());
  }
  for (const auto& [name, hist] : m.histograms()) {
    h = fold_string(h, name);
    h = fold_word(h, hist.count());
    h = fold_word(h, hist.sum());
  }
  return h;
}

std::uint64_t observer_digest(const obs::Observer& o) {
  return fold_word(metrics_digest(o.metrics),
                   o.timeline.size() + o.timeline.dropped());
}

std::uint64_t run_digest(const ScenarioConfig& cfg) {
  return result_digest(run_scenario(cfg));
}

}  // namespace pp::exp
