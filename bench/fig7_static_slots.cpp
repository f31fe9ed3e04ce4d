// Figure 7 reproduction: fixed-size TCP/UDP slots at a 500 ms burst
// interval with medium background TCP traffic.  The TCP slot weight is
// varied (10% / 33% / 56%).
//
// Left panel: energy for ten multimedia clients (by fidelity) — a larger
// TCP slot means every client stays awake longer, wasting energy.
// Right panel: the TCP client's energy (bars) and end-to-end latency
// (dots) — shrinking the TCP slot raises background-traffic latency.
#include "bench/battery.hpp"
#include "exp/builder.hpp"

int main(int argc, char** argv) {
  using namespace pp;
  const auto opts = bench::parse_args(argc, argv);

  const std::vector<double> weights{0.10, 0.33, 0.56};
  std::vector<exp::ScenarioConfig> configs;
  for (int fidelity : {0, 1, 2, 3}) {
    for (double w : weights) {
      configs.push_back(exp::ScenarioBuilder::fig7(fidelity, w).build());
    }
  }
  const auto results = bench::run_battery(configs, opts);

  bench::Report rep{"Figure 7: slotted static schedule @ 500 ms"};
  auto& left =
      rep.section("left panel: UDP client energy used (% of naive; lower is "
                  "better)");
  int idx = 0;
  for (int fidelity : {0, 1, 2, 3}) {
    auto& row = left.row().cell("stream", exp::role_name(fidelity));
    static const char* kCols[3] = {"TCP wt=10%", "TCP wt=33%", "TCP wt=56%"};
    for (int k = 0; k < 3; ++k) {
      const auto s = exp::summarize_video(results[idx + k].clients);
      row.cell(kCols[k], 100.0 - s.avg, 1);  // energy *used*, as plotted
    }
    idx += 3;
  }

  // Use the 256K block (paper's "medium general client" panel).
  auto& right = rep.section("right panel: the TCP (background) client");
  idx = 6;
  for (int k = 0; k < 3; ++k) {
    double energy_used = 0, latency = 0;
    for (const auto& c : results[idx + k].clients) {
      if (exp::is_video_role(c.role)) continue;
      energy_used = 100.0 - c.saved_pct;
      latency = c.page_time_ms;
    }
    right.row()
        .cell("tcp-weight%", weights[k] * 100.0, 0)
        .cell("energy-used%", energy_used, 1)
        .cell("latency-ms", latency, 0);
  }
  rep.note(
      "paper: a small TCP slot minimizes UDP-client energy but inflates "
      "TCP latency; a large slot wastes energy on every client.");
  return bench::emit(rep, opts);
}
