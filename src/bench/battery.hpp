// The bench-side front door: run a battery of scenarios and render it.
//
// Every figure/table binary follows the same shape:
//
//   int main(int argc, char** argv) {
//     auto opts = pp::bench::parse_args(argc, argv);
//     std::vector<pp::exp::ScenarioConfig> configs = ...;   // builder presets
//     auto results = pp::bench::run_battery(configs, opts);
//     pp::bench::Report rep{"Figure N: ..."};
//     ... rows from results[i].clients ...
//     return pp::bench::emit(rep, opts);
//   }
//
// run_battery is exp::run_parallel over exp::run_scenario, with a progress
// line and ETA on stderr.  Every run is bit-deterministic and results come
// back in input order, so a battery's output does not depend on the worker
// count.  emit renders the Report — the table on stdout, or the JSON
// document instead when requested — so a binary's machine output is
// exactly Report::json() and nothing else.
//
// Flags every battery binary accepts (parse_args):
//   --threads=N   worker override (else $PP_THREADS, else hardware)
//   --json        print the JSON document instead of the table
//                 (also: PP_BENCH_JSON=1)
//   --quiet       no stderr progress
#pragma once

#include <vector>

#include "bench/report.hpp"
#include "exp/scenario.hpp"

namespace pp::bench {

struct BatteryOptions {
  unsigned threads = 0;  // 0 = resolve_threads
  bool json = false;
  bool progress = true;
};

// Unknown flags are ignored (binaries may layer their own on top).
BatteryOptions parse_args(int argc, char** argv);

// Run every config; results[i] belongs to configs[i].
std::vector<exp::ScenarioResult> run_battery(
    const std::vector<exp::ScenarioConfig>& configs,
    const BatteryOptions& opts = {});

// Render the report; returns 0 (a main()-tail convenience).
int emit(const Report& rep, const BatteryOptions& opts);

}  // namespace pp::bench
