// Baseline comparison: 802.11 power-save mode vs the paper's proxy
// scheduling, for multimedia streams (Section 2: PSM "is not a good match
// for multimedia").
//
// The PSM topology is assembled by hand from the library's pieces: the
// proxy runs in passthrough mode (no shaping), the access point broadcasts
// beacons and parks frames for dozing stations, and PsmClient dozes
// between beacons.  The hand-built half cannot express itself as a
// ScenarioConfig, so it runs directly; the proxy rows go through
// bench::run_battery like every other battery.
#include <algorithm>
#include <memory>
#include <vector>

#include "bench/battery.hpp"
#include "client/psm_client.hpp"
#include "exp/builder.hpp"
#include "exp/testbed.hpp"
#include "proxy/scheduler.hpp"
#include "workload/video.hpp"

namespace {

using namespace pp;

struct PsmRun {
  double avg_saved = 0, min_saved = 0, max_saved = 0;
  double avg_loss = 0;
};

PsmRun run_psm(int clients, int fidelity, double duration_s) {
  exp::TestbedParams tp;
  tp.num_clients = 0;  // we attach PSM clients ourselves
  tp.proxy.mode = proxy::ProxyMode::Passthrough;
  tp.channel = channel::ChannelSpec::flat(0.01);
  exp::Testbed bed{tp, std::make_unique<proxy::FixedIntervalScheduler>(
                           sim::Time::ms(500))};
  bed.access_point().enable_psm(sim::Time::ms(100));

  std::vector<std::unique_ptr<client::PsmClient>> stations;
  for (int i = 0; i < clients; ++i) {
    stations.push_back(std::make_unique<client::PsmClient>(
        bed.sim(), bed.medium(), bed.energy_ledger(), exp::testbed_client_ip(i),
        "psm" + std::to_string(i)));
    bed.access_point().register_psm_station(stations[i]->ip());
  }

  net::Node& server_node = bed.add_server("realserver");
  workload::VideoServer server{server_node};
  std::vector<std::unique_ptr<workload::VideoClient>> apps;
  for (int i = 0; i < clients; ++i) {
    server.expect_client(stations[i]->ip(), fidelity);
    apps.push_back(std::make_unique<workload::VideoClient>(
        stations[i]->node(), server_node.ip()));
    apps[i]->play(sim::Time::seconds(2.0 + i));
  }
  bed.start(sim::Time::ms(500));
  const sim::Time horizon = sim::Time::seconds(duration_s);
  bed.run_until(horizon);

  PsmRun out;
  out.min_saved = 100.0;
  for (auto& st : stations) {
    const double s = 100.0 * st->energy_saved_fraction(horizon);
    out.avg_saved += s;
    out.min_saved = std::min(out.min_saved, s);
    out.max_saved = std::max(out.max_saved, s);
    out.avg_loss += 100.0 * st->loss_fraction();
  }
  out.avg_saved /= clients;
  out.avg_loss /= clients;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const auto opts = bench::parse_args(argc, argv);
  const std::vector<int> fidelities{0, 2, 3};

  std::vector<exp::ScenarioConfig> configs;
  for (int fidelity : fidelities) {
    configs.push_back(exp::ScenarioBuilder::fig4(
                          std::vector<int>(10, fidelity),
                          exp::IntervalPolicy::Fixed500)
                          .build());
  }
  const auto results = bench::run_battery(configs, opts);

  bench::Report rep{
      "Baseline: 802.11 PSM vs proxy scheduling (video clients)"};
  auto& sec = rep.section();
  for (std::size_t i = 0; i < fidelities.size(); ++i) {
    const auto psm = run_psm(10, fidelities[i], 140.0);
    sec.row()
        .cell("stream", exp::role_name(fidelities[i]))
        .cell("policy", "802.11 PSM (100ms)")
        .cell("avg%", psm.avg_saved, 1)
        .cell("min%", psm.min_saved, 1)
        .cell("max%", psm.max_saved, 1)
        .cell("loss%", psm.avg_loss, 2);
    const auto& clients = results[i].clients;
    const auto s = exp::summarize_all(clients);
    sec.row()
        .cell("stream", exp::role_name(fidelities[i]))
        .cell("policy", "proxy schedule (500ms)")
        .cell("avg%", s.avg, 1)
        .cell("min%", s.min, 1)
        .cell("max%", s.max, 1)
        .cell("loss%", exp::average_loss_pct(clients), 2);
  }
  rep.note(
      "PSM wakes for every beacon and stays up through the whole drain of "
      "its parked frames; for continuous media the TIM bit is always set, "
      "so it approximates a 100 ms schedule without the proxy's burst "
      "shaping — which is why the paper builds the proxy instead.");
  return bench::emit(rep, opts);
}
