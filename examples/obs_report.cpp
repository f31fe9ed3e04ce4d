// Observability report: run a scenario with metrics + timeline attached,
// export everything to JSONL/CSV, then read the JSONL back and render the
// run — top-line metrics, per-client sleep/wake duty cycles, the
// burst-duration histogram, and an ASCII burst/sleep timeline — proving
// the export round trip carries everything an external tool needs.
//
// Usage: obs_report [duration_s] [out_prefix]
//   Writes <out_prefix>.jsonl, <out_prefix>.metrics.csv, and
//   <out_prefix>.timeline.csv (default prefix: obs_report).
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "exp/builder.hpp"
#include "obs/export.hpp"

namespace {

using namespace pp;

// Per-client view assembled from timeline events alone.
struct ClientTimeline {
  double sleep_s = 0;         // total time with the radio off
  int sleeps = 0;
  int bursts = 0;
  std::uint64_t burst_bytes = 0;
  int drops = 0;
  int missed_schedules = 0;
  sim::Time last_sleep;
  bool asleep = false;
};

void render_timeline_strip(const obs::Report& rep, sim::Time horizon) {
  // One row per client; 100 columns spanning the run.  '#' = burst granted,
  // '.' = asleep, ' ' = awake/idle, '!' = drop.
  constexpr int kCols = 100;
  std::map<std::uint32_t, std::string> rows;
  auto col = [&](sim::Time t) {
    const double frac = t.to_seconds() / horizon.to_seconds();
    return std::clamp(static_cast<int>(frac * kCols), 0, kCols - 1);
  };
  auto row = [&](std::uint32_t subject) -> std::string& {
    auto it = rows.find(subject);
    if (it == rows.end()) {
      it = rows.emplace(subject, std::string(kCols, ' ')).first;
    }
    return it->second;
  };
  // Pass 1: sleep intervals as '.' runs.
  std::map<std::uint32_t, sim::Time> sleep_start;
  for (const auto& e : rep.events) {
    if (e.kind == obs::EventKind::Sleep) {
      sleep_start[e.subject] = e.at;
    } else if (e.kind == obs::EventKind::Wake) {
      auto it = sleep_start.find(e.subject);
      if (it == sleep_start.end()) continue;
      auto& r = row(e.subject);
      for (int c = col(it->second); c <= col(e.at); ++c) r[c] = '.';
      sleep_start.erase(it);
    }
  }
  for (const auto& [subject, start] : sleep_start) {
    auto& r = row(subject);
    for (int c = col(start); c < kCols; ++c) r[c] = '.';
  }
  // Pass 2: bursts and drops on top.
  for (const auto& e : rep.events) {
    if (e.kind == obs::EventKind::Burst) {
      auto& r = row(e.subject);
      for (int c = col(e.at); c <= col(e.at + e.dur); ++c) r[c] = '#';
    } else if (e.kind == obs::EventKind::Drop && e.subject != 0) {
      row(e.subject)[col(e.at)] = '!';
    }
  }
  std::printf("\ntimeline (0 .. %.0f s;  '#'=burst  '.'=asleep  '!'=drop)\n",
              horizon.to_seconds());
  for (const auto& [subject, r] : rows) {
    std::printf("  %-14s |%s|\n", obs::subject_str(subject).c_str(),
                r.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  const double duration_s = argc > 1 ? std::atof(argv[1]) : 60.0;
  const std::string prefix = argc > 2 ? argv[2] : "obs_report";

  exp::ScenarioConfig cfg;
  try {
    cfg = exp::ScenarioBuilder{}
              .roles({0, 2, exp::kRoleWeb, exp::kRoleFtp})
              .policy(exp::IntervalPolicy::Fixed500)
              .seed(11)
              .duration_s(duration_s)
              .ftp_bytes(1'000'000)
              .keep_obs()
              .build();
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }

  std::printf("running %.0f s mixed scenario (2 video + 1 web + 1 ftp)...\n",
              duration_s);
  const auto res = exp::run_scenario(cfg);

  // Export, then work from the re-imported report only.
  const obs::Report live = obs::snapshot(res.obs->metrics, &res.obs->timeline);
  {
    std::ofstream jf{prefix + ".jsonl"};
    obs::write_jsonl(jf, live);
    std::ofstream mf{prefix + ".metrics.csv"};
    obs::write_metrics_csv(mf, live);
    std::ofstream tf{prefix + ".timeline.csv"};
    obs::write_timeline_csv(tf, live);
    if (!jf || !mf || !tf) {
      std::fprintf(stderr, "error: cannot write output files at prefix %s\n",
                   prefix.c_str());
      return 1;
    }
  }
  std::ifstream in{prefix + ".jsonl"};
  const obs::Report rep = obs::read_jsonl(in);
  std::printf("wrote %s.jsonl / %s.metrics.csv / %s.timeline.csv\n",
              prefix.c_str(), prefix.c_str(), prefix.c_str());

  // -- Top-line metrics ------------------------------------------------------------
  auto counter = [&](const char* name) -> std::uint64_t {
    const auto* c = rep.find_counter(name);
    return c ? c->value : 0;
  };
  std::printf("\ntop-line metrics\n");
  std::printf("  schedule broadcasts   %10llu\n",
              static_cast<unsigned long long>(counter("proxy.schedules_sent")));
  std::printf("  packets queued        %10llu\n",
              static_cast<unsigned long long>(counter("proxy.queued_packets")));
  std::printf("  proxy queue drops     %10llu\n",
              static_cast<unsigned long long>(counter("proxy.queue_drops")));
  std::printf("  AP downlink drops     %10llu\n",
              static_cast<unsigned long long>(counter("ap.downlink_dropped")));
  std::printf("  empty burst markers   %10llu\n",
              static_cast<unsigned long long>(
                  counter("proxy.empty_burst_markers")));
  std::printf("  frames on air         %10llu  (missed by sleepers: %llu)\n",
              static_cast<unsigned long long>(counter("net.frames_sent")),
              static_cast<unsigned long long>(counter("net.frames_missed")));
  std::printf("  TCP retransmissions   %10llu  (timeouts: %llu, fast: %llu)\n",
              static_cast<unsigned long long>(counter("tcp.retransmissions")),
              static_cast<unsigned long long>(counter("tcp.timeouts")),
              static_cast<unsigned long long>(counter("tcp.fast_retransmits")));
  if (const auto* q = rep.find_time_gauge("proxy.queue_depth_bytes")) {
    std::printf("  proxy queue depth      mean %.0f B, max %.0f B\n", q->mean,
                q->max);
  }
  if (const auto* b = rep.find_time_gauge("ap.backlog_bytes")) {
    std::printf("  AP backlog             mean %.0f B, max %.0f B\n", b->mean,
                b->max);
  }

  // -- Per-client duty cycle -------------------------------------------------------
  std::printf("\nper-client radio duty cycle (from time-weighted gauges)\n");
  std::printf("  %-14s %-9s %8s %10s %8s\n", "client", "role", "awake%",
              "sleeps", "missed");
  std::map<std::uint32_t, ClientTimeline> tls;
  for (const auto& e : rep.events) {
    auto& t = tls[e.subject];
    switch (e.kind) {
      case obs::EventKind::Sleep:
        ++t.sleeps;
        t.asleep = true;
        t.last_sleep = e.at;
        break;
      case obs::EventKind::Wake:
        if (t.asleep) t.sleep_s += (e.at - t.last_sleep).to_seconds();
        t.asleep = false;
        break;
      case obs::EventKind::Burst:
        ++t.bursts;
        t.burst_bytes += e.value;
        break;
      case obs::EventKind::Drop:
        ++t.drops;
        break;
      case obs::EventKind::ScheduleMissed:
        ++t.missed_schedules;
        break;
      default:
        break;
    }
  }
  for (std::size_t i = 0; i < res.clients.size(); ++i) {
    const auto& c = res.clients[i];
    const auto* awake =
        rep.find_time_gauge("client." + c.ip.str() + ".awake");
    const auto& t = tls[c.ip.raw()];
    std::printf("  %-14s %-9s %7.1f%% %10d %8d\n", c.ip.str().c_str(),
                exp::role_name(c.role).c_str(),
                awake ? 100.0 * awake->mean : 100.0, t.sleeps,
                t.missed_schedules);
  }

  // -- Burst-duration histogram ----------------------------------------------------
  if (const auto* h = rep.find_histogram("proxy.burst_duration_us")) {
    std::printf("\nburst durations (us, log2 buckets; %llu bursts, mean %.0f)\n",
                static_cast<unsigned long long>(h->count),
                h->count ? static_cast<double>(h->sum) /
                               static_cast<double>(h->count)
                         : 0.0);
    std::uint64_t peak = 1;
    for (const auto& [floor, n] : h->buckets) peak = std::max(peak, n);
    for (const auto& [floor, n] : h->buckets) {
      const int bar = static_cast<int>(50 * n / peak);
      std::printf("  >=%9llu %6llu %s\n",
                  static_cast<unsigned long long>(floor),
                  static_cast<unsigned long long>(n),
                  std::string(static_cast<std::size_t>(bar), '*').c_str());
    }
  }

  render_timeline_strip(rep, res.horizon);
  return 0;
}
