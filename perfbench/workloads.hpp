// The benchmark's inputs and metric catalogue.
//
// A workload is a fixed grid of scenarios, generated from the benchmark's
// seed argument alone: every scenario and cell seed is derived from it, so
// one seed always yields the same grid and another seed yields a different
// one.  The grids reuse the repository's presets (ScenarioBuilder::fig4 ...
// degradation, the scale_sweep fleet, the frontier_sweep ladder cells) and
// override only their seeds.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "exp/multicell.hpp"
#include "exp/scenario.hpp"

namespace perfbench {

struct CellScenario {
  std::string label;  // grid coordinates, e.g. "fig4/56K/500ms#2"
  pp::exp::ScenarioConfig cfg;
  // Output check: the mean client loss (percent of the packets addressed
  // to a client that it missed) must stay below this.
  double max_mean_loss_pct = 0;
};

struct Workload {
  std::string name;
  // Cell workloads: independent single-cell scenarios, run one after the
  // other.  Empty for the fleet.
  std::vector<CellScenario> cells;
  // Fleet workload: one multi-cell testbed, with its loss bound.
  std::optional<pp::exp::MultiCellConfig> fleet;
  double fleet_max_mean_loss_pct = 0;
};

// The workload names, in the order BENCHMARK.json lists them.
const std::vector<std::string>& workload_names();

// Builds the named workload's grid for `seed`.  Throws
// std::invalid_argument for an unknown name.
Workload make_workload(const std::string& name, std::uint64_t seed);

// The seed of grid entry `index` under benchmark seed `seed`: a SplitMix64
// mix, folded into [1, 2^31) so every downstream seed arithmetic
// (seed * 7919 + 13, seed + 9973 * cell, ...) stays well inside 64 bits.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t index);

struct MetricDef {
  const char* name;
  const char* unit;
};

// Every metric the benchmark prints, by mode: untraced runs print the
// end-to-end list, traced runs the per-layer list.  BENCHMARK.json names
// the same metrics in the same order.
const std::vector<MetricDef>& end_to_end_metrics();
const std::vector<MetricDef>& per_layer_metrics();

}  // namespace perfbench
