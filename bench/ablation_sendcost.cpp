// Ablation: the linear send-cost model (Section 3.2.2 "Bandwidth
// Constraints").  Scaling the calibrated model below 1.0 makes the proxy
// believe the channel is faster than it is, so bursts overrun their slots
// and subsequent clients sit awake waiting for data that arrives late —
// the exact failure mode the paper's microbenchmarks exist to prevent.
#include "bench/battery.hpp"
#include "exp/builder.hpp"

int main(int argc, char** argv) {
  using namespace pp;
  const auto opts = bench::parse_args(argc, argv);

  const std::vector<double> scales{1.0, 0.7, 0.5, 0.3};
  std::vector<exp::ScenarioConfig> configs;
  for (double scale : scales) {
    configs.push_back(exp::ScenarioBuilder{}
                          .video(10, 2)  // ten 256K clients
                          .policy(exp::IntervalPolicy::Fixed500)
                          .seed(42)
                          .duration_s(140.0)
                          .cost_model_scale(scale)
                          .build());
  }
  const auto results = bench::run_battery(configs, opts);

  bench::Report rep{"Ablation: send-cost model calibration"};
  auto& sec = rep.section();
  for (std::size_t i = 0; i < scales.size(); ++i) {
    const auto& r = results[i];
    const auto s = exp::summarize_all(r.clients);
    sec.row()
        .cell("model-scale", scales[i], 1)
        .cell("avg%", s.avg, 1)
        .cell("min%", s.min, 1)
        .cell("loss%", exp::average_loss_pct(r.clients), 2)
        .cell("ap-drops", r.ap_drops);
  }
  rep.note(
      "an optimistic cost model overruns slots: later clients wake on time "
      "but their data is still queued behind the overrun, wasting energy "
      "and missing packets.");
  return bench::emit(rep, opts);
}
