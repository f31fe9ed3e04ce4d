// Figure 5 reproduction: ten clients, seven viewing UDP (video) streams and
// three downloading TCP (HTTP) data, for 100 ms / 500 ms / variable burst
// intervals.  One bar pair per access pattern: UDP clients vs TCP clients.
//
// Paper reference: savings range from just over 50% to just under 90%;
// best-case energy savings among video clients is similar across
// fidelities (stream adaptation, Section 4.3); TCP clients show lower
// variance than the UDP ones.
#include "bench/battery.hpp"
#include "exp/builder.hpp"

int main(int argc, char** argv) {
  using namespace pp;
  const auto opts = bench::parse_args(argc, argv);

  std::vector<exp::ScenarioConfig> configs;
  std::vector<std::pair<std::string, std::string>> labels;
  for (const auto& [iname, policy] : exp::presets::dynamic_intervals()) {
    for (const auto& [pname, roles] : exp::presets::fig5_patterns()) {
      configs.push_back(exp::ScenarioBuilder::fig5(roles, policy).build());
      labels.emplace_back(pname, iname);
    }
  }
  const auto results = bench::run_battery(configs, opts);

  bench::Report rep{"Figure 5: 7 video + 3 web clients, energy saved by group"};
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& [pattern, interval] = labels[i];
    const auto v = exp::summarize_video(results[i].clients);
    const auto t = exp::summarize_tcp(results[i].clients);
    rep.section("burst interval: " + interval)
        .row()
        .cell("pattern", pattern)
        .cell("udp-avg%", v.avg, 1)
        .cell("udp-min%", v.min, 1)
        .cell("udp-max%", v.max, 1)
        .cell("tcp-avg%", t.avg, 1)
        .cell("tcp-min%", t.min, 1)
        .cell("tcp-max%", t.max, 1);
  }

  // Variance comparison (Section 4.3: "TCP clients have a lower variance").
  auto& spread = rep.section("spread (max-min) at 500 ms");
  for (std::size_t i = 4; i < 8; ++i) {
    const auto v = exp::summarize_video(results[i].clients);
    const auto t = exp::summarize_tcp(results[i].clients);
    spread.row()
        .cell("pattern", labels[i].first)
        .cell("udp-spread", v.max - v.min, 1)
        .cell("tcp-spread", t.max - t.min, 1);
  }
  return bench::emit(rep, opts);
}
