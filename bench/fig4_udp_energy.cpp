// Figure 4 reproduction: ten clients viewing UDP (video) streams with
// 100 ms, 500 ms, and variable burst intervals, for five access patterns
// (56K, 256K, 512K, half-and-half, mixed-all).  Reports average, minimum,
// and maximum energy saved versus the naive client.
//
// Paper reference (500 ms): 56K ~77%, 256K ~66%, 512K ~53%; the two mixed
// patterns average ~69%.  100 ms is several points worse than 500 ms
// (5x the WNIC wake transitions); variable falls in between for
// high-bandwidth streams and tracks 100 ms for low-bandwidth ones.
#include <map>

#include "bench/battery.hpp"
#include "exp/builder.hpp"
#include "workload/video.hpp"

int main(int argc, char** argv) {
  using namespace pp;
  const auto opts = bench::parse_args(argc, argv);

  const std::map<std::string, std::map<std::string, const char*>> paper{
      {"56K", {{"500ms", "77"}}},
      {"256K", {{"500ms", "66"}}},
      {"512K", {{"500ms", "53"}}},
      {"56K_512K", {{"500ms", "~69"}}},
      {"All", {{"500ms", "~69"}}},
  };

  std::vector<exp::ScenarioConfig> configs;
  std::vector<std::pair<std::string, std::string>> labels;
  for (const auto& [iname, policy] : exp::presets::dynamic_intervals()) {
    for (const auto& [pname, roles] : exp::presets::fig4_patterns()) {
      configs.push_back(exp::ScenarioBuilder::fig4(roles, policy).build());
      labels.emplace_back(pname, iname);
    }
  }
  const auto results = bench::run_battery(configs, opts);

  bench::Report rep{"Figure 4: ten UDP video clients, energy saved vs naive"};
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& [pattern, interval] = labels[i];
    const auto& clients = results[i].clients;
    const auto s = exp::summarize_all(clients);
    const char* ref = "-";
    if (auto pit = paper.find(pattern); pit != paper.end()) {
      if (auto iit = pit->second.find(interval); iit != pit->second.end())
        ref = iit->second;
    }
    rep.section("burst interval: " + interval)
        .row()
        .cell("pattern", pattern)
        .cell("avg%", s.avg, 1)
        .cell("min%", s.min, 1)
        .cell("max%", s.max, 1)
        .cell("loss%", exp::average_loss_pct(clients), 2)
        .cell("paper-avg%", ref);
  }

  // The 512K anomaly (Section 4.3): peak demand of ten 512K streams
  // exceeds the effective wireless bandwidth, so RealServer-style
  // adaptation downshifts some streams.
  auto& adapt = rep.section("512K stream adaptation (500 ms interval)");
  for (const auto& c : results[7].clients) {
    if (!exp::is_video_role(c.role)) continue;
    adapt.row()
        .cell("client", c.ip.str())
        .cell("final-fidelity-kbps",
              c.video_fidelity_final >= 0
                  ? workload::kFidelities[c.video_fidelity_final].nominal_kbps
                  : -1)
        .cell("app-loss%", c.app_loss_pct, 2);
  }
  return bench::emit(rep, opts);
}
