// The energy-delay Pareto frontier of the scheduler zoo.
//
// Grid: load (video client count x fidelity) x channel burstiness (quality
// ladder steepness), with every policy run on every cell:
//
//   fixed-500ms      — the paper's dynamic baseline (channel-blind)
//   lqf-500ms        — longest-queue-first priority, tail starved
//   opportunistic    — defer worst-rung clients within their deadline slack
//   probabilistic    — randomized buffer-threshold admission (q/(q+q0))
//
// Each cell reports mean downlink datagram delay against mean per-client
// energy: one (delay, energy) point per policy, the cell's Pareto frontier.
// On bursty channels the opportunistic policy should strictly dominate LQF
// (lower delay AND lower energy): deferred clients sleep through fades
// instead of burning the interval awake re-trying a dead channel, and the
// reclaimed airtime drains good-state queues sooner.
//
// --smoke shrinks the grid for the bench-smoke ctest label.
#include <cstring>
#include <string>

#include "bench/battery.hpp"
#include "exp/builder.hpp"

int main(int argc, char** argv) {
  using namespace pp;
  const auto opts = bench::parse_args(argc, argv);
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }

  const double duration = smoke ? 24.0 : 60.0;

  struct Load {
    const char* name;
    int clients;
    int fidelity;
  };
  // The heavy cell overcommits the 500 ms interval (the regime where who
  // gets airtime matters); the light cell fits comfortably.
  const std::vector<Load> loads{
      {"6x128K", 6, 1},
      {"12x256K", 12, 2},
  };
  struct Burst {
    const char* name;
    double burstiness;
  };
  const std::vector<Burst> bursts{
      {"calm", 0.3},
      {"bursty", 0.85},
  };
  struct Policy {
    const char* name;
    exp::IntervalPolicy policy;
  };
  const std::vector<Policy> policies{
      {"fixed-500ms", exp::IntervalPolicy::Fixed500},
      {"lqf-500ms", exp::IntervalPolicy::LongestQueue500},
      {"opportunistic", exp::IntervalPolicy::Opportunistic500},
      {"probabilistic", exp::IntervalPolicy::Probabilistic500},
  };

  std::vector<exp::ScenarioConfig> configs;
  for (const auto& l : loads) {
    for (const auto& b : bursts) {
      for (const auto& p : policies) {
        configs.push_back(
            exp::ScenarioBuilder{}
                .video(l.clients, l.fidelity)
                // Fixed-rate streams: RealServer-style downshift would
                // collapse demand on lossy cells and mask the policy
                // differences the sweep exists to measure.
                .video_adaptive(false)
                .policy(p.policy)
                .seed(42)
                .duration_s(duration)
                .channel(channel::ChannelSpec::ladder(3, b.burstiness))
                .build());
      }
    }
  }
  const auto results = bench::run_battery(configs, opts);

  struct Point {
    // pp-lint: allow(naked-duration): derived report statistic, not sim state
    double delay_ms = 0;
    double energy_mj = 0;
  };
  // points[load][burst][policy]
  std::vector<Point> points(results.size());

  bench::Report rep{
      "Frontier sweep: energy vs delay across load x channel burstiness"};
  auto& sec = rep.section();
  std::size_t idx = 0;
  for (const auto& l : loads) {
    for (const auto& b : bursts) {
      for (const auto& p : policies) {
        const auto& cs = results[idx].clients;
        double energy = 0, saved = 0, loss = 0, delay_weighted = 0;
        std::uint64_t samples = 0;
        for (const auto& c : cs) {
          energy += c.energy_mj;
          saved += c.saved_pct;
          loss += c.loss_pct;
          delay_weighted +=
              c.mean_delay_ms * static_cast<double>(c.delay_samples);
          samples += c.delay_samples;
        }
        const double n = static_cast<double>(cs.size());
        Point pt;
        pt.energy_mj = energy / n;
        pt.delay_ms =
            samples > 0 ? delay_weighted / static_cast<double>(samples) : 0;
        points[idx] = pt;
        sec.row()
            .cell("load", l.name)
            .cell("channel", b.name)
            .cell("policy", p.name)
            .cell("mean-delay-ms", pt.delay_ms, 1)
            .cell("energy-mJ", pt.energy_mj, 1)
            .cell("loss%", loss / n, 2)
            .cell("saved%", saved / n, 1);
        ++idx;
      }
    }
  }

  // Dominance audit: per cell, does the opportunistic point sit strictly
  // below-left of LQF (less delay AND less energy)?
  std::size_t cell = 0;
  for (const auto& l : loads) {
    for (const auto& b : bursts) {
      const Point& lqf = points[cell * policies.size() + 1];
      const Point& opp = points[cell * policies.size() + 2];
      const bool dominates =
          opp.delay_ms < lqf.delay_ms && opp.energy_mj < lqf.energy_mj;
      rep.note(std::string{l.name} + "/" + b.name +
               ": opportunistic vs lqf delta-delay-ms=" +
               std::to_string(opp.delay_ms - lqf.delay_ms) +
               " delta-energy-mJ=" +
               std::to_string(opp.energy_mj - lqf.energy_mj) +
               (dominates ? "  [strictly dominates]" : ""));
      ++cell;
    }
  }
  rep.note(
      "expected: on bursty cells opportunistic strictly dominates lqf — "
      "deferring worst-rung clients converts awake-through-fade waste into "
      "sleep and gives the airtime to good-state queues.");
  return bench::emit(rep, opts);
}
