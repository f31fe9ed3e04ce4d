// Degradation report: run a deliberately hostile scenario — a Gilbert-Elliott
// bursty channel plus one window of every typed fault (deep fade, AP
// stall, link flap, proxy pause) — with the graceful-degradation hardening
// on (schedule k-repeat, client miss escalation), then render what the
// fault layer did and what it cost: the fault windows recovered, per-client
// outage/resync accounting, and a timeline strip with the faults overlaid.
//
// Usage: degradation_report [duration_s]
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench/battery.hpp"
#include "exp/builder.hpp"
#include "fault/spec.hpp"
#include "obs/export.hpp"

namespace {

using namespace pp;

void render_strip(const std::vector<obs::TimelineEvent>& events,
                  sim::Time horizon) {
  // One row per client; '.' = asleep, 'x' = missed schedule, 'R' = resync,
  // 'F' = deep-fade window.  System-wide faults get their own row.
  constexpr int kCols = 100;
  std::map<std::uint32_t, std::string> rows;
  auto col = [&](sim::Time t) {
    const double frac = t.to_seconds() / horizon.to_seconds();
    return std::clamp(static_cast<int>(frac * kCols), 0, kCols - 1);
  };
  auto row = [&](std::uint32_t subject) -> std::string& {
    auto it = rows.find(subject);
    if (it == rows.end())
      it = rows.emplace(subject, std::string(kCols, ' ')).first;
    return it->second;
  };
  std::map<std::uint32_t, sim::Time> sleep_start;
  std::map<std::uint64_t, sim::Time> fault_start;  // (value<<32)|subject
  for (const auto& e : events) {
    switch (e.kind) {
      case obs::EventKind::Sleep:
        sleep_start[e.subject] = e.at;
        break;
      case obs::EventKind::Wake: {
        auto it = sleep_start.find(e.subject);
        if (it == sleep_start.end()) break;
        auto& r = row(e.subject);
        for (int c = col(it->second); c <= col(e.at); ++c) r[c] = '.';
        sleep_start.erase(it);
        break;
      }
      case obs::EventKind::FaultStart:
        fault_start[(e.value << 32) | e.subject] = e.at;
        break;
      case obs::EventKind::FaultEnd: {
        auto it = fault_start.find((e.value << 32) | e.subject);
        if (it == fault_start.end()) break;
        const char mark =
            fault::to_string(static_cast<fault::FaultKind>(e.value))[0];
        auto& r = row(e.subject);
        for (int c = col(it->second); c <= col(e.at); ++c)
          r[c] = static_cast<char>(std::toupper(mark));
        fault_start.erase(it);
        break;
      }
      default:
        break;
    }
  }
  // Point markers on top of the sleep/fault runs.
  for (const auto& e : events) {
    if (e.kind == obs::EventKind::ScheduleMissed) {
      row(e.subject)[col(e.at)] = 'x';
    } else if (e.kind == obs::EventKind::Resync) {
      row(e.subject)[col(e.at)] = 'R';
    }
  }
  std::printf(
      "\ntimeline (0 .. %.0f s;  '.'=asleep  'x'=miss  'R'=resync\n"
      "               'D'=deep fade  'A'=AP stall  'L'=link flap  "
      "'P'=proxy pause)\n",
      horizon.to_seconds());
  for (const auto& [subject, r] : rows) {
    std::printf("  %-14s |%s|\n", obs::subject_str(subject).c_str(),
                r.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  const double duration_s = argc > 1 ? std::atof(argv[1]) : 40.0;

  // The hostile everything-at-once preset: a Gilbert-Elliott channel plus
  // one window of every typed fault, hardening (k=2 repeats, escalation)
  // on.  The scenario keeps its observer, so the result carries the
  // timeline.
  auto opts = pp::bench::parse_args(argc, argv);
  opts.progress = false;
  std::vector<exp::ScenarioConfig> configs;
  try {
    configs.push_back(exp::ScenarioBuilder::degradation(duration_s).build());
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }

  std::printf("running %.0f s faulted scenario (3 video + 1 web, k=2 "
              "repeats, escalation on)...\n",
              duration_s);
  const auto results = pp::bench::run_battery(configs, opts);
  const auto& res = results[0];
  const obs::Report rep = obs::snapshot(res.obs->metrics, &res.obs->timeline);

  // -- Fault windows ---------------------------------------------------------------
  std::printf("\nfault windows (all must recover before the horizon)\n");
  std::printf("  %-12s %-14s %10s %10s\n", "kind", "subject", "start-s",
              "end-s");
  std::map<std::uint64_t, sim::Time> open;
  for (const auto& e : res.obs->timeline.events()) {
    const std::uint64_t key = (e.value << 32) | e.subject;
    if (e.kind == obs::EventKind::FaultStart) {
      open[key] = e.at;
    } else if (e.kind == obs::EventKind::FaultEnd) {
      std::printf("  %-12s %-14s %10.2f %10.2f\n",
                  fault::to_string(static_cast<fault::FaultKind>(e.value)),
                  obs::subject_str(e.subject).c_str(), open[key].to_seconds(),
                  e.at.to_seconds());
      open.erase(key);
    }
  }
  const auto counter = [&rep](const char* name) {
    const auto* c = rep.find_counter(name);
    return static_cast<unsigned long long>(c ? c->value : 0);
  };
  std::printf("  activated=%llu recovered=%llu ge_bad_entries=%llu "
              "(ge=%llu fade=%llu losses)\n",
              static_cast<unsigned long long>(res.fault_stats.windows_activated),
              static_cast<unsigned long long>(res.fault_stats.windows_recovered),
              counter("channel.state.worse_entries"),
              counter("channel.state.losses"),
              static_cast<unsigned long long>(res.fault_stats.fade_losses));

  // -- Per-client degradation ------------------------------------------------------
  std::printf("\nper-client degradation\n");
  std::printf("  %-14s %-9s %6s %6s %6s %6s %6s %7s %7s\n", "client", "role",
              "recvd", "missed", "esc", "resync", "dedup", "loss%", "saved%");
  for (const auto& c : res.clients) {
    std::printf("  %-14s %-9s %6llu %6llu %6llu %6llu %6llu %7.2f %7.1f\n",
                c.ip.str().c_str(), exp::role_name(c.role).c_str(),
                static_cast<unsigned long long>(c.schedules_received),
                static_cast<unsigned long long>(c.schedules_missed),
                static_cast<unsigned long long>(c.escalated_sleeps),
                static_cast<unsigned long long>(c.resyncs),
                static_cast<unsigned long long>(c.repeats_deduped),
                c.loss_pct, c.saved_pct);
  }

  // -- Recovery metrics ------------------------------------------------------------
  std::printf("\nrecovery metrics\n");
  std::printf("  schedule repeats sent %10llu (pauses: %llu)\n",
              static_cast<unsigned long long>(
                  res.proxy_stats.schedule_repeats_sent),
              static_cast<unsigned long long>(res.proxy_stats.pauses));
  if (const auto* h = rep.find_histogram("client.outage_us")) {
    std::printf("  outages               %10llu, mean %.0f ms to resync\n",
                static_cast<unsigned long long>(h->count),
                h->count ? static_cast<double>(h->sum) /
                               static_cast<double>(h->count) / 1000.0
                         : 0.0);
  }

  render_strip(res.obs->timeline.events(), res.horizon);
  return 0;
}
