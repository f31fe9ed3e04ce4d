// Section 4.3 "Packets lost or dropped": per-client loss across the video,
// web, and mixed experiment families.
//
// Paper reference: usually less than 2% with a few outliers — data is sent
// according to the schedule, so sleeping clients rarely miss anything.
#include <algorithm>

#include "bench/battery.hpp"
#include "channel/spec.hpp"
#include "exp/builder.hpp"

int main(int argc, char** argv) {
  using namespace pp;
  const auto opts = bench::parse_args(argc, argv);

  struct Family {
    std::string name;
    std::vector<int> roles;
  };
  const std::vector<Family> families{
      {"video 56K x10", std::vector<int>(10, 0)},
      {"video 256K x10", std::vector<int>(10, 2)},
      {"video 512K x10", std::vector<int>(10, 3)},
      {"web x10", std::vector<int>(10, exp::kRoleWeb)},
      {"mixed 7v+3w",
       {0, 0, 1, 1, 2, 2, 3, exp::kRoleWeb, exp::kRoleWeb, exp::kRoleWeb}},
  };
  std::vector<exp::ScenarioConfig> configs;
  for (const auto& f : families) {
    configs.push_back(
        exp::ScenarioBuilder::fig4(f.roles, exp::IntervalPolicy::Fixed500)
            .build());
  }

  // -- Uniform vs Gilbert-Elliott channel sweep ------------------------------------
  // Same average corruption rate, two very different loss processes:
  // independent per-frame drops vs correlated bad-state bursts.  The GE
  // rows fix p_bad_good (sojourn length, per 20 ms chain tick) and solve
  // p_good_bad for the target average, so the curves are comparable point
  // by point.
  const std::vector<double> targets{0.005, 0.01, 0.02, 0.05, 0.1};
  const double p_bad_good = 0.02;
  const double loss_bad = 0.85;
  const double loss_good = 0.0;

  auto curve_base = [] {
    return exp::ScenarioBuilder{}
        .video(2, 1)
        .video(2, 2)
        .web(2)
        .policy(exp::IntervalPolicy::Fixed500)
        .seed(42)
        .duration_s(60.0);
  };
  std::vector<double> solved_p_good_bad;
  for (const double p : targets) {
    configs.push_back(curve_base().wireless_p_loss(p).build());
  }
  for (const double p : targets) {
    const double f_bad = p / loss_bad;  // stationary bad-state fraction
    const double p_good_bad = p_bad_good * f_bad / (1.0 - f_bad);
    solved_p_good_bad.push_back(p_good_bad);
    configs.push_back(curve_base()
                          .channel(channel::ChannelSpec::two_state(
                              p_good_bad, p_bad_good, loss_good, loss_bad))
                          .build());
  }
  const auto results = bench::run_battery(configs, opts);

  bench::Report rep{"Packet loss across experiment families (500 ms interval)"};
  auto& fam = rep.section();
  for (std::size_t i = 0; i < families.size(); ++i) {
    const auto& clients = results[i].clients;
    double mx = 0, app = 0;
    int under2 = 0;
    for (const auto& c : clients) {
      mx = std::max(mx, c.loss_pct);
      app += c.app_loss_pct;
      under2 += c.loss_pct < 2.0;
    }
    fam.row()
        .cell("family", families[i].name)
        .cell("avg-loss%", exp::average_loss_pct(clients), 2)
        .cell("max-loss%", mx, 2)
        .cell("<2%-count", under2)
        .cell("app-loss-avg%", app / static_cast<double>(clients.size()), 2);
  }
  rep.note("paper: typically < 2% missed packets, a few outliers.");

  const auto miss_sum = [](const exp::ScenarioResult& r) {
    std::uint64_t m = 0;
    for (const auto& c : r.clients) m += c.schedules_missed;
    return m;
  };
  auto& uni = rep.section("uniform loss (mixed 4v+2w, 60 s)");
  for (std::size_t i = 0; i < targets.size(); ++i) {
    const auto& r = results[families.size() + i];
    uni.row()
        .cell("p", targets[i], 3)
        .cell("avg-loss%", exp::average_loss_pct(r.clients), 3)
        .cell("avg-saved%", exp::summarize_all(r.clients).avg, 2)
        .cell("schedules-missed", miss_sum(r));
  }
  auto& ge = rep.section("gilbert-elliott loss (mixed 4v+2w, 60 s)");
  for (std::size_t i = 0; i < targets.size(); ++i) {
    const auto& r = results[families.size() + targets.size() + i];
    ge.row()
        .cell("p-avg", targets[i], 3)
        .cell("p-good-bad", solved_p_good_bad[i], 5)
        .cell("p-bad-good", p_bad_good, 3)
        .cell("loss-bad", loss_bad, 2)
        .cell("avg-loss%", exp::average_loss_pct(r.clients), 3)
        .cell("avg-saved%", exp::summarize_all(r.clients).avg, 2)
        .cell("schedules-missed", miss_sum(r));
  }
  rep.note(
      "same average rate, different process: correlated GE bursts take out "
      "whole schedule+burst exchanges where uniform loss nicks single "
      "frames.");
  return bench::emit(rep, opts);
}
