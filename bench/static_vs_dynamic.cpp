// Section 4.3 "Comparison to static schedules": when every client views an
// identical-fidelity stream, a permanent equal-slot schedule needs no
// per-interval schedule reception, lowering both the mean energy and its
// variance — but it cannot adapt to heterogeneous or TCP traffic.
//
// Paper reference: static lowers average energy usage and variance for
// identical streams (100 ms interval, ten clients at 56/256/512K); the
// dynamic schedule wins once fidelities differ, averaging ~69% on the
// mixed patterns.
#include "bench/battery.hpp"
#include "exp/builder.hpp"

int main(int argc, char** argv) {
  using namespace pp;
  const auto opts = bench::parse_args(argc, argv);

  std::vector<exp::ScenarioConfig> configs;
  std::vector<std::string> labels;
  for (int fidelity : {0, 2, 3}) {
    for (auto policy : {exp::IntervalPolicy::StaticEqual100,
                        exp::IntervalPolicy::Fixed100}) {
      labels.push_back(
          exp::role_name(fidelity) + "/" +
          (policy == exp::IntervalPolicy::StaticEqual100 ? "static"
                                                         : "dynamic"));
      configs.push_back(
          exp::ScenarioBuilder::fig4(std::vector<int>(10, fidelity), policy)
              .build());
    }
  }
  // Heterogeneous pattern: static equal slots waste bandwidth here.
  for (auto policy : {exp::IntervalPolicy::StaticEqual100,
                      exp::IntervalPolicy::Fixed100}) {
    labels.push_back(
        std::string("56K_512K/") +
        (policy == exp::IntervalPolicy::StaticEqual100 ? "static" : "dynamic"));
    configs.push_back(
        exp::ScenarioBuilder::fig4({0, 0, 0, 0, 0, 3, 3, 3, 3, 3}, policy)
            .build());
  }
  const auto results = bench::run_battery(configs, opts);

  bench::Report rep{"Static vs dynamic schedules (ten clients, 100 ms)"};
  auto& sec = rep.section();
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& clients = results[i].clients;
    const auto s = exp::summarize_all(clients);
    sec.row()
        .cell("pattern/policy", labels[i])
        .cell("avg%", s.avg, 1)
        .cell("min%", s.min, 1)
        .cell("max%", s.max, 1)
        .cell("spread", s.max - s.min, 1)
        .cell("loss%", exp::average_loss_pct(clients), 2);
  }
  rep.note(
      "paper: static improves identical-fidelity streams (no schedule "
      "reception), but the dynamic schedule handles mixed fidelities "
      "seamlessly.");
  return bench::emit(rep, opts);
}
