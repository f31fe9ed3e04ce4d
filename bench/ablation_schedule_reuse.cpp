// Ablation: the schedule-reuse extension (Section 5, future work).
//
// When the schedule does not change between intervals the proxy sets the
// reuse flag, letting clients skip waking for the next broadcast and wake
// only at their burst rendezvous point.  With a static schedule this
// halves the wake transitions.
#include "bench/battery.hpp"
#include "exp/builder.hpp"

int main(int argc, char** argv) {
  using namespace pp;
  const auto opts = bench::parse_args(argc, argv);

  std::vector<exp::ScenarioConfig> configs;
  for (bool honor : {true, false}) {
    configs.push_back(exp::ScenarioBuilder{}
                          .video(10, 0)
                          .policy(exp::IntervalPolicy::StaticEqual100)
                          .seed(42)
                          .duration_s(140.0)
                          .honor_reuse(honor)
                          .build());
  }
  const auto results = bench::run_battery(configs, opts);

  bench::Report rep{"Ablation: schedule reuse (the paper's future-work idea)"};
  auto& sec = rep.section();
  const char* kNames[] = {"reuse (skip schedule)", "wake for schedule"};
  for (int i = 0; i < 2; ++i) {
    const auto& clients = results[i].clients;
    std::uint64_t scheds = 0, sleeps = 0;
    for (const auto& c : clients) {
      scheds += c.schedules_received;
      sleeps += c.sleeps;
    }
    sec.row()
        .cell("client behaviour", kNames[i])
        .cell("avg%", exp::summarize_all(clients).avg, 1)
        .cell("loss%", exp::average_loss_pct(clients), 2)
        .cell("sched-rcvd", scheds)
        .cell("sleeps", sleeps);
  }
  rep.note(
      "reuse removes the per-interval schedule wake: fewer transitions and "
      "less early-transition waste, exactly the saving Section 5 "
      "anticipates.");
  return bench::emit(rep, opts);
}
