#include "exp/sweep/key.hpp"

#include <cstdio>

namespace pp::exp::sweep {

namespace {

// Append "name=value\n".  Doubles use hexfloat ("%a"): exact, locale-free,
// and stable across compilers for the same bit pattern.
void put(std::string& out, const char* name, const std::string& v) {
  out += name;
  out += '=';
  out += v;
  out += '\n';
}

void put_u64(std::string& out, const char* name, std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%llu", static_cast<unsigned long long>(v));
  put(out, name, buf);
}

void put_i64(std::string& out, const char* name, std::int64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(v));
  put(out, name, buf);
}

void put_f(std::string& out, const char* name, double v) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%a", v);
  put(out, name, buf);
}

void put_b(std::string& out, const char* name, bool v) {
  put(out, name, v ? "1" : "0");
}

}  // namespace

std::string canonical_config(const ScenarioConfig& cfg) {
  std::string out;
  out.reserve(1024);
  out += "ppsweep-config v1\n";
  {
    std::string roles;
    for (const int r : cfg.roles) {
      if (!roles.empty()) roles += ',';
      roles += std::to_string(r);
    }
    put(out, "roles", roles);
  }
  put_i64(out, "policy", static_cast<std::int64_t>(cfg.policy));
  put_u64(out, "seed", cfg.seed);
  put_i64(out, "early_transition_ns", cfg.early_transition.count_ns());
  put_i64(out, "compensation", static_cast<std::int64_t>(cfg.compensation));
  put_f(out, "slotted_tcp_weight", cfg.slotted_tcp_weight);
  put_i64(out, "proxy_mode", static_cast<std::int64_t>(cfg.proxy_mode));
  put_f(out, "cost_model_scale", cfg.cost_model_scale);
  put_b(out, "honor_reuse", cfg.honor_reuse);
  put_b(out, "naive_clients", cfg.naive_clients);
  put_f(out, "duration_s", cfg.duration_s);
  put_f(out, "video_start_s", cfg.video_start_s);
  put_f(out, "video_spacing_s", cfg.video_spacing_s);
  put_u64(out, "ftp_bytes", cfg.ftp_bytes);
  put_i64(out, "web_pages", cfg.web_pages);
  put_f(out, "web_think_mean_s", cfg.web_think_mean_s);
  put_b(out, "keep_trace", cfg.keep_trace);
  put_b(out, "keep_obs", cfg.keep_obs);
  put_b(out, "per_client_obs", cfg.per_client_obs);
  put_f(out, "wireless_p_loss", cfg.wireless_p_loss);
  put_b(out, "wireless_override", cfg.wireless.has_value());
  if (cfg.wireless) {
    const net::WirelessParams& w = *cfg.wireless;
    put_f(out, "wireless.rate_bps", w.rate_bps);
    put_f(out, "wireless.broadcast_rate_bps", w.broadcast_rate_bps);
    put_i64(out, "wireless.per_frame_overhead_ns",
            w.per_frame_overhead.count_ns());
    put_i64(out, "wireless.propagation_ns", w.propagation.count_ns());
    put_f(out, "wireless.p_loss", w.p_loss);
    put_u64(out, "wireless.mac_framing_bytes", w.mac_framing_bytes);
  }
  put_b(out, "ap_override", cfg.ap.has_value());
  if (cfg.ap) {
    const net::AccessPointParams& a = *cfg.ap;
    put_i64(out, "ap.base_delay_ns", a.base_delay.count_ns());
    put_i64(out, "ap.jitter_max_ns", a.jitter_max.count_ns());
    put_f(out, "ap.p_spike", a.p_spike);
    put_i64(out, "ap.spike_max_ns", a.spike_max.count_ns());
    put_u64(out, "ap.queue_limit_bytes", a.queue_limit_bytes);
  }
  put_b(out, "video_adaptive", cfg.video_adaptive);
  put_u64(out, "fault.windows", cfg.fault.windows.size());
  for (const auto& w : cfg.fault.windows) {
    std::string line = std::to_string(static_cast<int>(w.kind)) + ',' +
                       std::to_string(w.client.raw()) + ',' +
                       std::to_string(w.start.count_ns()) + ',' +
                       std::to_string(w.duration.count_ns());
    put(out, "fault.window", line);
  }
  put_b(out, "fault.storm.enabled", cfg.fault.storm.enabled);
  if (cfg.fault.storm.enabled) {
    const fault::ChurnStorm& s = cfg.fault.storm;
    put_i64(out, "fault.storm.start_ns", s.start.count_ns());
    put_i64(out, "fault.storm.duration_ns", s.duration.count_ns());
    put_f(out, "fault.storm.flap_fraction", s.flap_fraction);
    put_i64(out, "fault.storm.min_away_ns", s.min_away.count_ns());
    put_i64(out, "fault.storm.max_away_ns", s.max_away.count_ns());
    put_i64(out, "fault.storm.min_home_ns", s.min_home.count_ns());
    put_i64(out, "fault.storm.max_home_ns", s.max_home.count_ns());
  }
  put_b(out, "measured_goodput", cfg.measured_goodput);
  put_b(out, "jitter_guard", cfg.jitter_guard);
  put_i64(out, "schedule_repeats", cfg.schedule_repeats);
  put_i64(out, "schedule_repeat_spacing_ns",
          cfg.schedule_repeat_spacing.count_ns());
  put_b(out, "miss_escalation", cfg.miss_escalation);
  put_b(out, "channel.enabled", cfg.channel.enabled);
  if (cfg.channel.enabled) {
    put_f(out, "channel.ewma_alpha", cfg.channel.ewma_alpha);
    put_u64(out, "channel.rungs", cfg.channel.rungs.size());
    for (const auto& r : cfg.channel.rungs) {
      put_f(out, "channel.rung.p_up", r.p_up);
      put_f(out, "channel.rung.p_down", r.p_down);
      put_f(out, "channel.rung.loss", r.loss);
      put_f(out, "channel.rung.goodput_bps", r.goodput_bps);
    }
  }
  return out;
}

// Fires when ScenarioConfig grows (or shrinks) on the reference toolchain:
// extend canonical_config above and bump kCodeVersionSalt, then update the
// pinned size.  Other ABIs skip the check rather than pin a wrong number.
#if defined(__GLIBCXX__) && defined(__x86_64__)
static_assert(sizeof(ScenarioConfig) == 416,
              "ScenarioConfig changed: update canonical_config() and bump "
              "kCodeVersionSalt");
#endif

std::string canonical_multicell_config(const MultiCellConfig& cfg) {
  std::string out;
  out.reserve(1536);
  out += "ppsweep-multicell v1\n";
  put_i64(out, "num_cells", cfg.num_cells);
  put_i64(out, "backbone_latency_ns", cfg.backbone_latency.count_ns());
  put_b(out, "cross.enabled", cfg.cross.enabled);
  if (cfg.cross.enabled) {
    put_i64(out, "cross.period_ns", cfg.cross.period.count_ns());
    put_u64(out, "cross.bytes", cfg.cross.bytes);
    put_i64(out, "cross.fanout", cfg.cross.fanout);
    put_f(out, "cross.start_s", cfg.cross.start_s);
  }
  // Embedded per-cell rendering: every scenario-level axis (client count
  // via roles, policy, seed, ...) flows into the fleet key unchanged.
  out += "cell{\n";
  out += canonical_config(cfg.cell);
  out += "}cell\n";
  return out;
}

// Same reference-toolchain guard as ScenarioConfig above: fires when
// MultiCellConfig grows, reminding you to extend
// canonical_multicell_config() and bump kCodeVersionSalt.
#if defined(__GLIBCXX__) && defined(__x86_64__)
static_assert(sizeof(MultiCellConfig) == 464,
              "MultiCellConfig changed: update canonical_multicell_config() "
              "and bump kCodeVersionSalt");
#endif

std::uint64_t config_key(const ScenarioConfig& cfg, std::uint64_t salt) {
  std::uint64_t h = fnv1a_u64(kFnvOffset, salt);
  for (const char c : canonical_config(cfg)) {
    h = fnv1a_byte(h, static_cast<std::uint8_t>(c));
  }
  return h;
}

std::uint64_t multicell_key(const MultiCellConfig& cfg, std::uint64_t salt) {
  std::uint64_t h = fnv1a_u64(kFnvOffset, salt ^ 0x6d63656c6cULL);  // "mcell"
  for (const char c : canonical_multicell_config(cfg)) {
    h = fnv1a_byte(h, static_cast<std::uint8_t>(c));
  }
  return h;
}

std::string key_hex(std::uint64_t key) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(key));
  return buf;
}

}  // namespace pp::exp::sweep
