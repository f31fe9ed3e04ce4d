// What does keeping the observability streams cost on a whole scenario?
//
// Runs one Fig 4 cell (the "All" fidelity mix at 500 ms, 140 sim-s) by
// default and with keep_obs.  A default run attaches no time gauge,
// histogram or timeline: every instrumentation site is one predictable
// branch on a null Observer*, and the counters are published from
// component stats at the end either way.  keep_obs attaches the streams,
// so its row is the price of keeping them.  Tracing overhead under 500 ms
// slices is perfbench's `tracing.overhead_pct`, not measured here.
//
//   micro_obs_overhead                  table to stdout
//
// pp-lint: allow(wall-clock): perf harness; wall time is the measurement
// here and never feeds simulation state.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <utility>

#include "bench/report.hpp"
#include "exp/builder.hpp"
#include "exp/scenario.hpp"

namespace {

// pp-lint: allow(wall-clock): perf harness, see header note
using WallClock = std::chrono::steady_clock;

std::uint64_t g_sink = 0;  // keeps every run's result observable

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

int main() {
  using namespace pp;
  exp::ScenarioConfig cell =
      exp::ScenarioBuilder::fig4(exp::presets::fig4_patterns().back().second,
                                 exp::IntervalPolicy::Fixed500)
          .build();
  const double wall_default = best_scenario_ms(cell);
  cell.keep_obs = true;
  const double wall_keep_obs = best_scenario_ms(cell);

  bench::Report rep{"observability overhead on a whole scenario"};
  auto& whole = rep.section("scenario: one fig4 cell (All, 500ms, 140 s)");
  for (const auto& [state, ms] :
       {std::pair{"default", wall_default}, std::pair{"keep_obs", wall_keep_obs}}) {
    whole.row()
        .cell("state", state)
        .cell("wall_ms", ms, 2)
        .cell("vs_default_pct", 100.0 * (ms / wall_default - 1.0), 1);
  }
  rep.note("best of 3 trials");
  rep.print();
  if (g_sink == 0) std::fprintf(stderr, "(impossible: sink == 0)\n");
  return 0;
}
