// Ablation: delay compensation (Section 3.3).  Compares the paper's
// adaptive algorithm (anchor on the observed schedule arrival) against
// anchoring on the proxy's clock stamp and against no early transition at
// all, under realistic access-point jitter.
#include "bench/battery.hpp"
#include "exp/builder.hpp"

int main(int argc, char** argv) {
  using namespace pp;
  const auto opts = bench::parse_args(argc, argv);

  struct Mode {
    const char* name;
    client::CompensationMode mode;
  };
  const std::vector<Mode> modes{
      {"adaptive (paper)", client::CompensationMode::Adaptive},
      {"proxy clock", client::CompensationMode::ProxyClock},
      {"no early transition", client::CompensationMode::None},
  };

  std::vector<exp::ScenarioConfig> configs;
  for (const auto& m : modes) {
    configs.push_back(exp::ScenarioBuilder{}
                          .video(5, 0)
                          .policy(exp::IntervalPolicy::Fixed100)
                          .seed(42)
                          .duration_s(140.0)
                          .compensation(m.mode)
                          // Pronounced AP jitter, as on real hardware.
                          .ap_jitter(0.08, sim::Time::ms(8))
                          .build());
  }
  const auto results = bench::run_battery(configs, opts);

  bench::Report rep{"Ablation: delay compensation algorithms"};
  auto& sec = rep.section();
  for (std::size_t i = 0; i < modes.size(); ++i) {
    const auto& clients = results[i].clients;
    std::uint64_t miss = 0, pkts = 0;
    for (const auto& c : clients) {
      miss += c.schedules_missed;
      pkts += c.packets_missed;
    }
    sec.row()
        .cell("algorithm", modes[i].name)
        .cell("avg%", exp::summarize_all(clients).avg, 1)
        .cell("loss%", exp::average_loss_pct(clients), 2)
        .cell("sched-miss", miss)
        .cell("missed-pkts", pkts);
  }
  rep.note(
      "the adaptive anchor absorbs access-point delay shifts; fixed anchors "
      "miss schedules whenever the path delay drifts.");
  return bench::emit(rep, opts);
}
