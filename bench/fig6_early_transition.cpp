// Figure 6 reproduction: the effect of the early transition amount on
// wasted energy, for a single client with a 100 ms burst interval.
//
// One live run captures the wireless trace; the postmortem analyzer then
// replays it under early transition amounts of 0, 2, 4, 6, 8 and 10 ms —
// exactly the paper's methodology (the simulator reads the tcpdump trace).
//
// Paper reference: wasted energy decomposes into an "Early" component that
// grows with the early transition amount and a "MissedSched" component
// that grows as it shrinks; 6 ms is the best value, and missed packets
// range from 0.97% (10 ms early) to 1.83% (0 ms early).
//
// The scenario keeps its wireless trace for the postmortem replay.
#include "bench/battery.hpp"
#include "exp/builder.hpp"
#include "trace/postmortem.hpp"

int main(int argc, char** argv) {
  using namespace pp;
  const auto opts = bench::parse_args(argc, argv);

  const auto results =
      bench::run_battery({exp::ScenarioBuilder::fig6().build()}, opts);
  const auto& res = results[0];

  bench::Report rep{"Figure 6: early transition amount vs wasted energy"};
  auto& sec = rep.section();
  trace::PostmortemAnalyzer analyzer{res.trace};
  // pp-lint: allow(naked-duration): sweep axis label, converted at use
  for (int early_ms : {0, 2, 4, 6, 8, 10}) {
    client::DaemonConfig dc;
    dc.comp.early = sim::Time::ms(early_ms);
    const auto pm = analyzer.analyze(res.clients[0].ip, dc, res.horizon);
    sec.row()
        .cell("early-ms", early_ms)
        .cell("early-J", pm.early_wait_mj / 1000.0, 2)
        .cell("missed-sched-J", pm.missed_wait_mj / 1000.0, 2)
        .cell("total-J", (pm.early_wait_mj + pm.missed_wait_mj) / 1000.0, 2)
        .cell("missed-pkt%", pm.loss_fraction * 100.0, 2)
        .cell("sched-missed", pm.schedules_missed);
  }
  rep.note("live run: " + std::to_string(res.trace.size()) +
           " frames captured");
  rep.note(
      "paper: Early grows with the amount, MissedSched shrinks; 6 ms "
      "minimizes the total.");
  return bench::emit(rep, opts);
}
