// Event-engine perf baseline (BENCH_sim_core.json).
//
// Measures events/sec through sim::EventQueue for three hot shapes:
// schedule-fire (40-byte captures, depth-64 churn), schedule-cancel
// (half the events cancelled before firing) and broadcast-fanout (a cell's
// idle clients re-arming their timers at one shared time, half of them
// cancelled).  End-to-end simulation rates live in the perfbench
// workloads, not here.
//
// Modes:
//   micro_event_queue                     table to stdout
//   micro_event_queue --out=FILE          also write the JSON document
//   micro_event_queue --check=FILE        regression gate: re-measure the
//       micro numbers and fail (exit 1) if any drops more than 30%
//       below FILE's recorded events_per_sec (override the tolerance via
//       PP_PERF_TOLERANCE, a fraction, e.g. 0.5)
//
// Refresh the committed baseline from a Release build on a quiet machine:
//   cmake --preset perf && cmake --build --preset perf -j
//   ./build-perf/bench/micro_event_queue --out=BENCH_sim_core.json
//
// pp-lint: allow(wall-clock): perf harness; wall time is the measurement
// here and never feeds simulation state.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "bench/report.hpp"
#include "sim/event_queue.hpp"
#include "sim/rng.hpp"
#include "sim/time.hpp"

namespace {

// pp-lint: allow(wall-clock): perf harness, see header note
using WallClock = std::chrono::steady_clock;

double seconds_since(WallClock::time_point t0) {
  return std::chrono::duration<double>(WallClock::now() - t0).count();
}

// The fattest capture the simulator schedules: 40 bytes, as in the proxy's
// burst-slot timers (`this` plus a 32-byte schedule entry).  Packets never
// ride in an event; links keep them in FIFO rings of their own.
struct CaptureState {
  unsigned char bytes[32] = {};
};
static_assert(pp::sim::EventCallback::fits_inline<CaptureState>());

constexpr int kDepth = 64;  // concurrent events, ~the testbed's working set

// Push/fire churn: every event fires.  Returns events/sec.
double measure_schedule_fire(std::int64_t target_events) {
  using pp::sim::EventQueue;
  using pp::sim::Time;
  EventQueue q;
  pp::sim::Rng rng{2026};
  std::uint64_t sink = 0;
  std::int64_t done = 0;
  const auto t0 = WallClock::now();
  while (done < target_events) {
    for (int i = 0; i < kDepth; ++i) {
      CaptureState payload;
      payload.bytes[0] = static_cast<unsigned char>(i);
      const auto when = static_cast<std::int64_t>(rng.next_u64() % 1'000'000);
      q.push(Time::ns(when), [&sink, payload] { sink += payload.bytes[0]; });
    }
    while (!q.empty()) {
      q.pop().fn();
      ++done;
    }
  }
  const double secs = seconds_since(t0);
  if (sink == 0) std::fprintf(stderr, "(impossible: sink == 0)\n");
  return static_cast<double>(done) / secs;
}

// Push/cancel/fire churn: half the scheduled events are cancelled before
// they fire.  Throughput counts every scheduled event (the work done).
double measure_schedule_cancel(std::int64_t target_events) {
  using pp::sim::EventQueue;
  using pp::sim::Time;
  EventQueue q;
  pp::sim::Rng rng{4052};
  std::int64_t scheduled = 0;
  const auto t0 = WallClock::now();
  while (scheduled < target_events) {
    pp::sim::EventHandle hs[kDepth];
    for (int i = 0; i < kDepth; ++i) {
      CaptureState payload;
      const auto when = static_cast<std::int64_t>(rng.next_u64() % 1'000'000);
      hs[i] = q.push(Time::ns(when), [payload] {});
    }
    scheduled += kDepth;
    for (int i = 0; i < kDepth; i += 2) hs[i].cancel();
    while (!q.empty()) q.pop().fn();
  }
  const double secs = seconds_since(t0);
  return static_cast<double>(scheduled) / secs;
}

// A schedule broadcast re-arms every idle client's wake timer at one
// shared time, and half of those timers are cancelled again before they
// fire.  kFanout is one fleet_100k cell: 100k clients over 16 cells.
constexpr int kFanout = 6250;

double measure_broadcast_fanout(std::int64_t target_events) {
  using pp::sim::EventQueue;
  using pp::sim::Time;
  EventQueue q;
  std::vector<pp::sim::EventHandle> hs(kFanout);
  std::uint64_t sink = 0;
  std::int64_t scheduled = 0;
  std::int64_t round = 0;
  const auto t0 = WallClock::now();
  while (scheduled < target_events) {
    const Time wake = Time::ms(500 * ++round);
    for (int i = 0; i < kFanout; ++i) {
      hs[i] = q.push(wake, [&sink, i] { sink += static_cast<unsigned>(i); });
    }
    scheduled += kFanout;
    for (int i = 0; i < kFanout; i += 2) hs[i].cancel();
    while (!q.empty()) q.pop().fn();
  }
  const double secs = seconds_since(t0);
  if (sink == 0) std::fprintf(stderr, "(impossible: sink == 0)\n");
  return static_cast<double>(scheduled) / secs;
}

double best_of(int trials, double (*fn)(std::int64_t), std::int64_t events) {
  double best = 0;
  for (int t = 0; t < trials; ++t) {
    const double eps = fn(events);
    if (eps > best) best = eps;
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace pp;
  std::string out_path;
  std::string check_path;
  std::int64_t events = 2'000'000;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--out=", 0) == 0) {
      out_path = arg.substr(6);
    } else if (arg.rfind("--check=", 0) == 0) {
      check_path = arg.substr(8);
    } else if (arg.rfind("--events=", 0) == 0) {
      events = std::atoll(arg.c_str() + 9);
    }
  }

  // Warmup pass (page in, clock up), then best-of-3 measured trials.
  (void)measure_schedule_fire(events / 4);
  const double fire_eps = best_of(3, measure_schedule_fire, events);
  const double cancel_eps = best_of(3, measure_schedule_cancel, events);
  const double fanout_eps = best_of(3, measure_broadcast_fanout, events);

  bench::Report rep{"sim core perf baseline"};
  auto& micro = rep.section("micro: event queue throughput");
  micro.row()
      .cell("bench", "schedule_fire")
      .cell("events_per_sec", fire_eps, 0)
      .cell("depth", kDepth);
  micro.row()
      .cell("bench", "schedule_cancel")
      .cell("events_per_sec", cancel_eps, 0)
      .cell("depth", kDepth);
  micro.row()
      .cell("bench", "broadcast_fanout")
      .cell("events_per_sec", fanout_eps, 0)
      .cell("depth", kFanout);

  rep.note(
      "refresh: Release build, quiet machine: "
      "micro_event_queue --out=BENCH_sim_core.json");

  if (!check_path.empty()) {
    return bench::check_baseline(
        "micro_event_queue", check_path,
        {{"schedule_fire", "events_per_sec", fire_eps},
         {"schedule_cancel", "events_per_sec", cancel_eps},
         {"broadcast_fanout", "events_per_sec", fanout_eps}},
        0.30);
  }

  if (!out_path.empty()) {
    std::ofstream out{out_path};
    out << rep.json() << "\n";
  }
  rep.print();
  return 0;
}
