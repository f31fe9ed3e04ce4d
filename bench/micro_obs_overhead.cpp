// How much does observability cost on the proxy burst hot loop, and on a
// whole scenario?
//
// Three states of the same kernel (src/bench/obs_overhead_kernel.hpp):
//   attached     — hook wired to a live MetricsRegistry + Timeline
//   detached     — hook present but null: one predictable branch per site
//   compiled_out — built with -DPP_OBS_DISABLED: instrumentation erased
// Detached is what every default scenario runs: a run attaches its time
// gauges, histograms and timeline only under keep_obs, and publishes its
// counters from component stats at the end either way.  Detached vs
// compiled_out is the claim under test: the runtime-off path should be
// indistinguishable from the compile-time-off path.
//
// The scenario rows run one Fig 4 cell (the "All" fidelity mix at 500 ms,
// 140 sim-s) by default and with keep_obs, so the price of keeping the
// streams is a printed number.  Tracing overhead under 500 ms slices is
// perfbench's `tracing.overhead_pct`, not measured here.
//
//   micro_obs_overhead                  table to stdout
//   micro_obs_overhead --packets=N      packets per timed trial (default 50M)
//
// pp-lint: allow(wall-clock): perf harness; wall time is the measurement
// here and never feeds simulation state.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench/obs_overhead_kernel.hpp"
#include "bench/report.hpp"
#include "exp/builder.hpp"
#include "exp/scenario.hpp"
#include "obs/observer.hpp"

namespace {

// pp-lint: allow(wall-clock): perf harness, see header note
using WallClock = std::chrono::steady_clock;

constexpr std::uint64_t kPacketsPerCall = 4096;

std::uint64_t g_sink = 0;  // keeps every kernel result observable

// Best-of-3 packets/sec of `loop`, called kPacketsPerCall at a time.
template <typename Loop>
double best_packets_per_sec(std::uint64_t packets, Loop loop) {
  double best = 0;
  for (int trial = 0; trial < 3; ++trial) {
    const auto t0 = WallClock::now();
    for (std::uint64_t done = 0; done < packets; done += kPacketsPerCall) {
      g_sink += loop(kPacketsPerCall);
    }
    const double secs =
        std::chrono::duration<double>(WallClock::now() - t0).count();
    const double pps = static_cast<double>(packets) / secs;
    if (pps > best) best = pps;
  }
  return best;
}

// Best-of-3 wall milliseconds of one whole run of `cfg`.
double best_scenario_ms(const pp::exp::ScenarioConfig& cfg) {
  double best = 0;
  for (int trial = 0; trial < 3; ++trial) {
    const auto t0 = WallClock::now();
    const pp::exp::ScenarioResult res = pp::exp::run_scenario(cfg);
    const double ms =
        std::chrono::duration<double, std::milli>(WallClock::now() - t0)
            .count();
    g_sink += res.frames_on_air;
    if (trial == 0 || ms < best) best = ms;
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace pp;
  std::uint64_t packets = 50'000'000;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--packets=", 0) == 0) {
      packets = std::strtoull(arg.c_str() + 10, nullptr, 10);
    }
  }

  obs::Observer ob;
  const struct {
    const char* state;
    double pps;
  } rows[] = {
      {"attached", best_packets_per_sec(packets,
                                        [&ob](std::uint64_t n) {
                                          return pp_bench::burst_hot_loop(
                                              ob.hook(), n);
                                        })},
      {"detached", best_packets_per_sec(packets,
                                        [](std::uint64_t n) {
                                          return pp_bench::burst_hot_loop(
                                              obs::Hook{}, n);
                                        })},
      {"compiled_out", best_packets_per_sec(packets, obs_compiled_out_hot_loop)},
  };

  bench::Report rep{"observability overhead on the burst hot loop"};
  auto& sec = rep.section("micro: packets through the kernel");
  for (const auto& r : rows) {
    sec.row()
        .cell("state", r.state)
        .cell("packets_per_sec", r.pps, 0)
        .cell("ns_per_packet", 1e9 / r.pps, 3);
  }

  exp::ScenarioConfig cell =
      exp::ScenarioBuilder::fig4(exp::presets::fig4_patterns().back().second,
                                 exp::IntervalPolicy::Fixed500)
          .build();
  const double wall_default = best_scenario_ms(cell);
  cell.keep_obs = true;
  const double wall_keep_obs = best_scenario_ms(cell);
  auto& whole = rep.section("scenario: one fig4 cell (All, 500ms, 140 s)");
  for (const auto& [state, ms] :
       {std::pair{"default", wall_default}, std::pair{"keep_obs", wall_keep_obs}}) {
    whole.row()
        .cell("state", state)
        .cell("wall_ms", ms, 2)
        .cell("vs_default_pct", 100.0 * (ms / wall_default - 1.0), 1);
  }
  rep.note("best of 3 trials; detached and compiled_out should match");
  rep.print();
  if (g_sink == 0) std::fprintf(stderr, "(impossible: sink == 0)\n");
  return 0;
}
