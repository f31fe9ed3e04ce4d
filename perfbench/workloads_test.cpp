#include "workloads.hpp"

#include <gtest/gtest.h>

#include <regex>
#include <set>
#include <stdexcept>

namespace {

// The grid's identity: every label and seed in order (fleet: cell seed).
std::vector<std::pair<std::string, std::uint64_t>> grid(
    const std::string& name, std::uint64_t seed) {
  const perfbench::Workload w = perfbench::make_workload(name, seed);
  std::vector<std::pair<std::string, std::uint64_t>> out;
  for (const auto& c : w.cells) out.push_back({c.label, c.cfg.seed});
  if (w.fleet) out.push_back({"fleet", w.fleet->cell.seed});
  return out;
}

TEST(PerfbenchWorkloads, SameSeedYieldsSameScenarioList) {
  for (const auto& name : perfbench::workload_names())
    EXPECT_EQ(grid(name, 7), grid(name, 7)) << name;
}

TEST(PerfbenchWorkloads, DifferentSeedYieldsDifferentSeeds) {
  for (const auto& name : perfbench::workload_names()) {
    const auto a = grid(name, 1);
    const auto b = grid(name, 2);
    ASSERT_EQ(a.size(), b.size()) << name;
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].first, b[i].first);
      EXPECT_NE(a[i].second, b[i].second) << name << " " << a[i].first;
    }
  }
}

TEST(PerfbenchWorkloads, SeedsAreDistinctWithinAGrid) {
  for (const auto& name : perfbench::workload_names()) {
    std::set<std::uint64_t> seeds;
    for (const auto& [label, s] : grid(name, 3)) {
      EXPECT_GT(s, 0u);
      EXPECT_LT(s, std::uint64_t{1} << 31);
      seeds.insert(s);
    }
    EXPECT_EQ(seeds.size(), grid(name, 3).size()) << name;
  }
}

TEST(PerfbenchWorkloads, CellGridsHoldAtLeastHundredScenarios) {
  EXPECT_EQ(perfbench::make_workload("paper_cell", 1).cells.size(), 126u);
  EXPECT_EQ(perfbench::make_workload("lossy_cell", 1).cells.size(), 108u);
  const auto fleet = perfbench::make_workload("fleet_100k", 1);
  ASSERT_TRUE(fleet.fleet.has_value());
  EXPECT_EQ(fleet.fleet->num_cells * fleet.fleet->cell.roles.size(),
            100000u);
}

TEST(PerfbenchWorkloads, UnknownWorkloadIsRejected) {
  EXPECT_THROW(perfbench::make_workload("nope", 1), std::invalid_argument);
}

TEST(PerfbenchMetrics, NamesAndUnitsAreWellFormedAndUnique) {
  const std::regex name_re{"[A-Za-z0-9_.-]+"};
  const std::regex unit_re{"[A-Za-z0-9_/%.-]{1,16}"};
  std::set<std::string> seen;
  for (const auto* list :
       {&perfbench::end_to_end_metrics(), &perfbench::per_layer_metrics()}) {
    for (const auto& m : *list) {
      EXPECT_TRUE(std::regex_match(m.name, name_re)) << m.name;
      EXPECT_TRUE(std::regex_match(m.unit, unit_re)) << m.unit;
      EXPECT_TRUE(seen.insert(m.name).second) << "duplicate " << m.name;
    }
  }
}

}  // namespace
