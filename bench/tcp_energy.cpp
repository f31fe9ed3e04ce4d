// Section 4.2 "Multiple TCP clients": ten clients browsing the web, each
// with multiple concurrent TCP streams, over scripted (repeatable) traffic.
//
// Paper reference: clients save between 70 and 80% versus a naive client,
// for all three burst-interval policies, with lower variance than video.
#include "bench/battery.hpp"
#include "exp/builder.hpp"

int main(int argc, char** argv) {
  using namespace pp;
  const auto opts = bench::parse_args(argc, argv);

  std::vector<exp::ScenarioConfig> configs;
  std::vector<std::string> labels;
  for (const auto& [iname, policy] : exp::presets::dynamic_intervals()) {
    configs.push_back(exp::ScenarioBuilder{}
                          .web(10)
                          .policy(policy)
                          .seed(7)
                          .duration_s(140.0)
                          .build());
    labels.push_back(iname);
  }
  const auto results = bench::run_battery(configs, opts);

  bench::Report rep{
      "Multiple TCP clients: ten web-browsing clients, energy saved"};
  auto& sec = rep.section();
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& clients = results[i].clients;
    const auto s = exp::summarize_all(clients);
    sec.row()
        .cell("pattern", "web x10")
        .cell("interval", labels[i])
        .cell("avg%", s.avg, 1)
        .cell("min%", s.min, 1)
        .cell("max%", s.max, 1)
        .cell("loss%", exp::average_loss_pct(clients), 2)
        .cell("paper-avg%", "70-80");
  }

  auto& detail = rep.section("per-client detail (500 ms)");
  for (const auto& c : results[1].clients) {
    detail.row()
        .cell("client", c.ip.str())
        .cell("saved%", c.saved_pct, 1)
        .cell("pages", c.pages_completed)
        .cell("mean-page-ms", c.page_time_ms, 0)
        .cell("bytes", c.app_bytes);
  }
  return bench::emit(rep, opts);
}
