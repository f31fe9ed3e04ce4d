// Baseline: the Bounded Slowdown protocol (the paper's reference [9])
// versus 802.11 PSM and the proxy schedule.
//
// Section 2's argument: BSD improves 802.11 PSM for request/response
// traffic (web pages), but "like 802.11b, this protocol is aimed at long
// periods of inactivity followed by small amounts of data ... our work is
// focused on multimedia streams, which by their nature have packets
// arriving for a long period of time."  This bench shows exactly that:
// BSD is competitive for web browsing and poor for streams.
//
// The hand-built BSD half runs directly (it is not a ScenarioConfig); the
// proxy rows go through bench::run_battery.
#include <memory>
#include <vector>

#include "bench/battery.hpp"
#include "client/bsd_client.hpp"
#include "exp/builder.hpp"
#include "exp/testbed.hpp"
#include "proxy/scheduler.hpp"
#include "workload/video.hpp"
#include "workload/web.hpp"

namespace {

using namespace pp;

struct Run {
  double avg_saved = 0;
  double avg_loss = 0;
  int pages = 0;
};

// BSD clients over a PSM access point; role: video fidelity or web.
Run run_bsd(int clients, int role, double duration_s) {
  exp::TestbedParams tp;
  tp.num_clients = 0;
  tp.proxy.mode = proxy::ProxyMode::Passthrough;
  tp.channel = channel::ChannelSpec::flat(0.01);
  exp::Testbed bed{tp, std::make_unique<proxy::FixedIntervalScheduler>(
                           sim::Time::ms(500))};
  bed.access_point().enable_psm(sim::Time::ms(100));

  std::vector<std::unique_ptr<client::BsdClient>> stations;
  for (int i = 0; i < clients; ++i) {
    stations.push_back(std::make_unique<client::BsdClient>(
        bed.sim(), bed.medium(), bed.energy_ledger(), exp::testbed_client_ip(i),
        "bsd" + std::to_string(i)));
    bed.access_point().register_psm_station(stations[i]->ip());
  }

  net::Node& server_node = bed.add_server("server");
  workload::VideoServer video_server{server_node};
  workload::HttpServer http_server{server_node};
  std::vector<std::unique_ptr<workload::VideoClient>> video_apps;
  std::vector<std::unique_ptr<workload::WebBrowsingClient>> web_apps;
  for (int i = 0; i < clients; ++i) {
    if (exp::is_video_role(role)) {
      video_server.expect_client(stations[i]->ip(), role);
      video_apps.push_back(std::make_unique<workload::VideoClient>(
          stations[i]->node(), server_node.ip()));
      video_apps.back()->play(sim::Time::seconds(2.0 + i));
    } else {
      auto script = workload::generate_web_script(42 * 131 + i);
      http_server.add_script(stations[i]->ip(), script);
      web_apps.push_back(std::make_unique<workload::WebBrowsingClient>(
          stations[i]->node(), server_node.ip(), std::move(script)));
      web_apps.back()->start(sim::Time::seconds(1.0 + 0.3 * i));
    }
  }
  bed.start(sim::Time::ms(500));
  const sim::Time horizon = sim::Time::seconds(duration_s);
  bed.run_until(horizon);

  Run out;
  for (auto& st : stations) {
    out.avg_saved += 100.0 * st->energy_saved_fraction(horizon);
    out.avg_loss += 100.0 * st->loss_fraction();
  }
  out.avg_saved /= clients;
  out.avg_loss /= clients;
  for (auto& w : web_apps) out.pages += w->stats().pages_completed;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const auto opts = bench::parse_args(argc, argv);

  struct Case {
    const char* name;
    int role;
    int clients;
  };
  const std::vector<Case> cases{
      {"web x10", exp::kRoleWeb, 10},
      {"56K video x10", 0, 10},
      {"512K video x10", 3, 10},
  };

  std::vector<exp::ScenarioConfig> configs;
  for (const auto& c : cases) {
    configs.push_back(
        exp::ScenarioBuilder::fig4(std::vector<int>(c.clients, c.role),
                                   exp::IntervalPolicy::Fixed500)
            .build());
  }
  const auto results = bench::run_battery(configs, opts);

  bench::Report rep{"Baseline: Bounded Slowdown [9] vs the proxy schedule"};
  auto& sec = rep.section();
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const auto bsd = run_bsd(cases[i].clients, cases[i].role, 140.0);
    sec.row()
        .cell("workload", cases[i].name)
        .cell("policy", "bounded slowdown")
        .cell("avg%", bsd.avg_saved, 1)
        .cell("loss%", bsd.avg_loss, 2)
        .cell("pages", bsd.pages);
    const auto& clients = results[i].clients;
    int pages = 0;
    for (const auto& c : clients) pages += c.pages_completed;
    sec.row()
        .cell("workload", cases[i].name)
        .cell("policy", "proxy schedule (500ms)")
        .cell("avg%", exp::summarize_all(clients).avg, 1)
        .cell("loss%", exp::average_loss_pct(clients), 2)
        .cell("pages", pages);
  }
  rep.note(
      "bounded slowdown shines on request/response gaps and idles; for "
      "long-lived streams its skip ladder never grows and it degenerates "
      "to per-beacon PSM — the paper's motivation for scheduling "
      "multimedia explicitly.");
  return bench::emit(rep, opts);
}
