// Robustness check: the headline Figure-4 numbers replicated across eight
// seeds, with 95% confidence intervals.  The paper's orderings should hold
// not just for one lucky seed.
//
// replicate_saved varies the seed internally and fans the seeds out
// through exp::run_parallel itself.
#include "bench/battery.hpp"
#include "exp/builder.hpp"
#include "exp/replicate.hpp"

int main(int argc, char** argv) {
  using namespace pp;
  const auto opts = bench::parse_args(argc, argv);

  struct Cell {
    const char* pattern;
    std::vector<int> roles;
    exp::IntervalPolicy policy;
    const char* interval;
  };
  const std::vector<Cell> cells{
      {"56K", std::vector<int>(10, 0), exp::IntervalPolicy::Fixed500, "500ms"},
      {"56K", std::vector<int>(10, 0), exp::IntervalPolicy::Fixed100, "100ms"},
      {"512K", std::vector<int>(10, 3), exp::IntervalPolicy::Fixed500, "500ms"},
      {"512K", std::vector<int>(10, 3), exp::IntervalPolicy::Variable, "var"},
  };

  bench::Report rep{"Replication: Figure-4 cells across 8 seeds"};
  auto& sec = rep.section();
  std::vector<exp::ReplicateStats> stats;
  for (const auto& cell : cells) {
    const auto cfg = exp::ScenarioBuilder{}
                         .roles(cell.roles)
                         .policy(cell.policy)
                         .duration_s(140.0)
                         .build();
    const auto s = exp::replicate_saved(cfg, 8);
    stats.push_back(s);
    sec.row()
        .cell("pattern", cell.pattern)
        .cell("interval", cell.interval)
        .cell("mean%", s.mean, 2)
        .cell("ci95", s.ci95(), 2)
        .cell("stddev", s.stddev, 2)
        .cell("min%", s.min, 2)
        .cell("max%", s.max, 2);
  }

  // The orderings must be statistically solid, not within-CI ties.
  const bool interval_ordering =
      stats[0].mean - stats[0].ci95() > stats[1].mean + stats[1].ci95();
  const bool variable_between = stats[3].mean < stats[2].mean + stats[2].ci95();
  rep.note(std::string("500ms > 100ms beyond CIs: ") +
           (interval_ordering ? "yes" : "NO"));
  rep.note(std::string("variable <= 500ms (512K): ") +
           (variable_between ? "yes" : "NO"));
  return bench::emit(rep, opts);
}
