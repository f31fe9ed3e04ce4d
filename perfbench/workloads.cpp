#include "workloads.hpp"

#include <stdexcept>

#include "channel/spec.hpp"
#include "exp/builder.hpp"

namespace perfbench {

namespace {

using pp::exp::IntervalPolicy;
using pp::exp::ScenarioBuilder;
using pp::sim::Time;

// Every cell scenario simulates the paper's 140 s run length.
constexpr double kCellSeconds = 140.0;

// Grid entries are replicated under distinct derived seeds until a pass
// holds at least 100 scenarios, so per-scenario percentiles have samples.
constexpr int kPaperReplicas = 3;  // 42 configs -> 126 scenarios
constexpr int kLossyReplicas = 6;  // 18 configs -> 108 scenarios

// The fleet: bench/scale_sweep's full row (16 cells x 6250 clients, four
// 128K streams and four browsers per cell, the rest idle) with the horizon
// doubled to 8 s so the epoch loop outweighs the build.
constexpr int kFleetCells = 16;
constexpr int kFleetClientsPerCell = 6250;
constexpr double kFleetSeconds = 8.0;

// Mean-loss bounds of the output check.  They catch a collapsed run, not
// a bad seed, so they sit well above the worst mean loss seen over 20
// seeds: clean Fig 4/5 and tcp_energy cells usually lose 1-5% but reached
// 10%; Fig 7's slotted schedule collapses a cell to 30-57% on about 2% of
// seeds; ladder and churn cells lose up to ~23% and the degradation preset
// up to ~64% by design; the fleet loses under 0.1%.
constexpr double kCleanLossPct = 50.0;
constexpr double kLossyLossPct = 90.0;
constexpr double kFleetLossPct = 5.0;

struct Entry {
  std::string label;
  ScenarioBuilder builder;
  double max_mean_loss_pct;
};

// Replicates `grid` `replicas` times; replica r of entry c gets the derived
// seed of index r * |grid| + c.
std::vector<CellScenario> replicate(const std::vector<Entry>& grid,
                                    int replicas, std::uint64_t seed) {
  std::vector<CellScenario> out;
  out.reserve(grid.size() * static_cast<std::size_t>(replicas));
  for (int r = 0; r < replicas; ++r) {
    for (std::size_t c = 0; c < grid.size(); ++c) {
      const std::uint64_t index =
          static_cast<std::uint64_t>(r) * grid.size() + c;
      ScenarioBuilder b = grid[c].builder;
      out.push_back({grid[c].label + "#" + std::to_string(r),
                     b.seed(derive_seed(seed, index)).build(),
                     grid[c].max_mean_loss_pct});
    }
  }
  return out;
}

// Fig 4 (5 patterns x 3 intervals), Fig 5 (4 mixed patterns x 3), the
// ten-browser TCP text result (x 3) and Fig 7 (4 fidelities x 3 weights).
std::vector<Entry> paper_grid() {
  std::vector<Entry> g;
  const auto intervals = pp::exp::presets::dynamic_intervals();
  for (const auto& [iname, policy] : intervals)
    for (const auto& [pname, roles] : pp::exp::presets::fig4_patterns())
      g.push_back({"fig4/" + pname + "/" + iname,
                   ScenarioBuilder::fig4(roles, policy), kCleanLossPct});
  for (const auto& [iname, policy] : intervals)
    for (const auto& [pname, roles] : pp::exp::presets::fig5_patterns())
      g.push_back({"fig5/" + pname + "/" + iname,
                   ScenarioBuilder::fig5(roles, policy), kCleanLossPct});
  for (const auto& [iname, policy] : intervals)
    g.push_back({"tcp_energy/webx10/" + iname,
                 ScenarioBuilder{}.web(10).policy(policy).duration_s(
                     kCellSeconds),
                 kCleanLossPct});
  for (const int fidelity : {0, 1, 2, 3})
    for (const double w : {0.10, 0.33, 0.56})
      g.push_back({"fig7/" + pp::exp::role_name(fidelity) + "/w" +
                       std::to_string(w),
                   ScenarioBuilder::fig7(fidelity, w), kLossyLossPct});
  return g;
}

// frontier_sweep's load x burstiness x policy grid on the channel ladder,
// plus the two faulted cells: the hostile degradation preset and a
// 32-client churn storm with doubled schedule broadcasts.
std::vector<Entry> lossy_grid() {
  std::vector<Entry> g;
  struct Load {
    const char* name;
    int clients;
    int fidelity;
  };
  struct Burst {
    const char* name;
    double burstiness;
  };
  const std::vector<std::pair<const char*, IntervalPolicy>> policies{
      {"fixed-500ms", IntervalPolicy::Fixed500},
      {"lqf-500ms", IntervalPolicy::LongestQueue500},
      {"opportunistic", IntervalPolicy::Opportunistic500},
      {"probabilistic", IntervalPolicy::Probabilistic500},
  };
  for (const Load& l : {Load{"6x128K", 6, 1}, Load{"12x256K", 12, 2}})
    for (const Burst& b : {Burst{"calm", 0.3}, Burst{"bursty", 0.85}})
      for (const auto& [pname, policy] : policies)
        g.push_back(
            {std::string{"frontier/"} + l.name + "/" + b.name + "/" + pname,
             ScenarioBuilder{}
                 .video(l.clients, l.fidelity)
                 .video_adaptive(false)
                 .policy(policy)
                 .duration_s(kCellSeconds)
                 .wireless_p_loss(0.0)
                 .channel(pp::channel::ChannelSpec::ladder(3, b.burstiness)),
             kLossyLossPct});
  // The preset retains its observer for its report; the benchmark decides
  // retention itself (traced runs keep it).
  g.push_back({"degradation",
               ScenarioBuilder::degradation(kCellSeconds).keep_obs(false),
               kLossyLossPct});
  ScenarioBuilder churn = ScenarioBuilder{}
                              .video(32, 1)
                              .policy(IntervalPolicy::Fixed500)
                              .duration_s(kCellSeconds)
                              .schedule_repeats(2);
  // Same storm shape as bench/churn_soak: every window closes 2 s before
  // the horizon, as the auditor requires.
  churn.fault_spec().churn_storm(Time::seconds(2.0),
                                 Time::seconds(kCellSeconds - 4.0), 0.25);
  g.push_back({"churn_storm/32x128K", churn, kLossyLossPct});
  return g;
}

pp::exp::MultiCellConfig fleet_config(std::uint64_t seed) {
  std::vector<int> roles(kFleetClientsPerCell, pp::exp::kRoleIdle);
  for (int i = 0; i < 4; ++i) roles[i] = 1;  // 128K video
  for (int i = 4; i < 8; ++i) roles[i] = pp::exp::kRoleWeb;
  pp::exp::MultiCellConfig mc;
  mc.num_cells = kFleetCells;
  mc.cell = ScenarioBuilder{}
                .roles(std::move(roles))
                .policy(IntervalPolicy::Fixed500)
                .seed(derive_seed(seed, 0))
                .duration_s(kFleetSeconds)
                .video_start_s(1.0)
                .video_spacing_s(0.25)
                .web_pages(2)
                .build();
  mc.cell.per_client_obs = false;  // cell-level streams only at scale
  mc.backbone_latency = Time::ms(20);
  mc.cross.period = Time::ms(100);
  mc.cross.bytes = 600;
  mc.cross.fanout = 4;
  return mc;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names{"paper_cell", "fleet_100k",
                                              "lossy_cell"};
  return names;
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t index) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (index + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  z ^= z >> 31;
  return (z >> 33) | 1;  // odd, hence never 0, and below 2^31
}

Workload make_workload(const std::string& name, std::uint64_t seed) {
  Workload w;
  w.name = name;
  if (name == "paper_cell") {
    w.cells = replicate(paper_grid(), kPaperReplicas, seed);
  } else if (name == "lossy_cell") {
    w.cells = replicate(lossy_grid(), kLossyReplicas, seed);
  } else if (name == "fleet_100k") {
    w.fleet = fleet_config(seed);
    w.fleet_max_mean_loss_pct = kFleetLossPct;
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  return w;
}

const std::vector<MetricDef>& end_to_end_metrics() {
  static const std::vector<MetricDef> m{
      {"sim_rate", "cell-s/s"},       {"setup_s", "s"},
      {"peak_rss_mb", "MB"},          {"bytes_per_client", "B"},
      {"scenario_ms.p50", "ms"},      {"scenario_ms.p90", "ms"},
  };
  return m;
}

const std::vector<MetricDef>& per_layer_metrics() {
  static const std::vector<MetricDef> m{
      {"sim.events_fired", "count"},
      {"sim.events_per_s", "1/s"},
      {"sim.cancel_ratio", "ratio"},
      {"sim.slab_slots", "count"},
      {"sim.slice_us.p50", "us"},
      {"sim.slice_us.p99", "us"},
      {"net.frames_sent", "count"},
      {"net.bursts", "count"},
      {"net.frames_per_burst", "ratio"},
      {"net.frames_missed", "count"},
      {"ap.forwarded", "count"},
      {"ap.dropped", "count"},
      {"proxy.queued_packets", "count"},
      {"proxy.queue_drop_ratio", "ratio"},
      {"proxy.schedules_sent", "count"},
      {"proxy.empty_burst_markers", "count"},
      {"proxy.churn.renegotiations", "count"},
      {"sched.policy.lqf.starved", "count"},
      {"sched.policy.opp.deferrals", "count"},
      {"sched.policy.opp.forced", "count"},
      {"sched.policy.prob.skips", "count"},
      {"sched.policy.prob.forced", "count"},
      {"client.schedules_missed", "count"},
      {"client.resyncs", "count"},
      {"client.assoc.retries", "count"},
      {"tcp.retransmissions", "count"},
      {"tcp.timeouts", "count"},
      {"channel.state.attempts", "count"},
      {"channel.state.losses", "count"},
      {"fault.windows_activated", "count"},
      {"trace.frames", "count"},
      {"obs.timeline_events", "count"},
      {"workload.video_trace_ms", "ms"},
      {"exp.setup_ms", "ms"},
      {"exp.finish_ms", "ms"},
      {"multicell.build_s", "s"},
      {"multicell.run_s", "s"},
      {"multicell.backbone_msgs", "count"},
      {"tracing.overhead_pct", "%"},
      {"tracing.digests_checked", "count"},
  };
  return m;
}

}  // namespace perfbench
