// Multi-cell scale sweep: aggregate throughput of the multi-cell engine
// (every cell run to the horizon alone) on a large mostly-idle fleet (E17).
//
// The full configuration is 16 cells x 6250 clients = 100k clients: a few
// video and web clients per cell generate in-cell load, deterministic
// backbone cross-traffic touches the idle majority, and per-client
// observability is off (the flat SoA counters and cell-level streams
// remain).  Reported metrics are aggregate simulated events per wall
// second and delivered bytes per client-second, the parallel speedup over
// a serial (1-worker) pass of the same fleet, and the heap bytes per
// client that building the fleet leaves live (glibc's mallinfo2 in-use
// bytes across MultiCellTestbed construction).
//
// --smoke shrinks the fleet (4 cells x 250 clients, 2 s) for the
// bench-smoke ctest label; that mode also re-runs the fleet at the
// resolved worker count and asserts the replay digest is bit-identical to
// the serial pass — the cross-thread determinism property the multi-cell
// engine guarantees.  --check=FILE re-measures the smoke fleet and gates
// events/sec against the committed BENCH_scale.json row (tolerance from
// PP_PERF_TOLERANCE, default 0.5 — CI machines are noisy and small).
#include <malloc.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/report.hpp"
#include "exp/multicell.hpp"
#include "exp/parallel.hpp"
#include "exp/scenario.hpp"

namespace {

int g_failures = 0;

void expect_ok(bool ok, const char* what) {
  if (ok) {
    std::printf("  ok   %s\n", what);
  } else {
    std::printf("  FAIL %s\n", what);
    ++g_failures;
  }
}

struct FleetSpec {
  const char* tag;
  int cells;
  int clients_per_cell;
  double seconds;
};

pp::exp::MultiCellConfig fleet_config(const FleetSpec& spec) {
  using namespace pp;
  exp::MultiCellConfig mc;
  mc.num_cells = spec.cells;
  // Per cell: four 128K video streams and four web browsers drive in-cell
  // load; everyone else is idle (associated, power-managed, reachable
  // over the backbone).  This is the mix that makes 100k tractable — the
  // paper's cell holds ~10 active clients, and the fleet scales by adding
  // mostly-quiet cells, not by making one cell absurd.
  const int active_video = std::min(4, spec.clients_per_cell);
  const int active_web =
      std::min(4, std::max(0, spec.clients_per_cell - active_video));
  mc.cell.roles.assign(static_cast<std::size_t>(spec.clients_per_cell),
                       exp::kRoleIdle);
  for (int i = 0; i < active_video; ++i) mc.cell.roles[i] = 1;  // 128K
  for (int i = 0; i < active_web; ++i)
    mc.cell.roles[active_video + i] = exp::kRoleWeb;
  mc.cell.policy = exp::IntervalPolicy::Fixed500;
  mc.cell.seed = 2026;
  mc.cell.duration_s = spec.seconds;
  mc.cell.video_start_s = 1.0;
  mc.cell.video_spacing_s = 0.25;
  mc.cell.web_pages = 2;
  mc.cell.per_client_obs = false;  // cell-level streams only at scale
  mc.backbone_latency = sim::Time::ms(20);
  mc.cross.period = sim::Time::ms(100);
  mc.cross.bytes = 600;
  mc.cross.fanout = 4;
  return mc;
}

struct Measurement {
  double wall_s = 0;
  double heap_bytes = 0;  // live after construction, over before it
  std::uint64_t events = 0;
  std::uint64_t bytes = 0;
  std::uint64_t backbone = 0;
  std::uint64_t digest = 0;
};

Measurement measure(const pp::exp::MultiCellConfig& mc, unsigned threads) {
  // pp-lint: allow(wall-clock): perf harness; wall time is the measurement
  using clock = std::chrono::steady_clock;
  const auto t0 = clock::now();
  const std::size_t heap0 = mallinfo2().uordblks;
  pp::exp::MultiCellTestbed bed{mc};
  const std::size_t heap1 = mallinfo2().uordblks;
  pp::exp::MultiCellResult res = bed.run(threads);
  const auto t1 = clock::now();
  Measurement m;
  m.wall_s = std::chrono::duration<double>(t1 - t0).count();
  m.heap_bytes = static_cast<double>(heap1) - static_cast<double>(heap0);
  m.events = res.events_total;
  m.backbone = res.backbone_messages;
  m.digest = res.digest;
  for (const auto& cell : res.cells)
    for (const auto& c : cell.clients) m.bytes += c.bytes_received;
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace pp;

  bool smoke = false;
  std::string out_path;
  std::string check_path;
  unsigned threads = 0;  // 0 = resolve from PP_THREADS / hardware
  int cells = 16;
  int per_cell = 6250;
  double seconds = 4.0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") smoke = true;
    else if (arg.rfind("--out=", 0) == 0) out_path = arg.substr(6);
    else if (arg.rfind("--check=", 0) == 0) check_path = arg.substr(8);
    else if (arg.rfind("--threads=", 0) == 0)
      threads = static_cast<unsigned>(std::atoi(arg.c_str() + 10));
    else if (arg.rfind("--cells=", 0) == 0) cells = std::atoi(arg.c_str() + 8);
    else if (arg.rfind("--clients=", 0) == 0)
      per_cell = std::atoi(arg.c_str() + 10);
    else if (arg.rfind("--seconds=", 0) == 0)
      seconds = std::atof(arg.c_str() + 10);
  }

  const bool smoke_only = smoke || !check_path.empty();
  std::vector<FleetSpec> specs;
  if (!smoke_only) specs.push_back(FleetSpec{"full", cells, per_cell, seconds});
  // The smoke fleet always runs: it carries the determinism checks and is
  // the row the CI gate compares against.
  specs.push_back(FleetSpec{"smoke", 4, 250, 2.0});

  bench::Report rep{"multi-cell scale sweep"};
  auto& sec = rep.section("aggregate throughput");
  double smoke_eps = 0;

  for (const FleetSpec& spec : specs) {
    const exp::MultiCellConfig mc = fleet_config(spec);
    const int total_clients = spec.cells * spec.clients_per_cell;
    const unsigned resolved = exp::resolve_threads(
        threads, static_cast<std::size_t>(spec.cells));

    std::printf("scale_sweep: %d cells x %d clients = %d, %.1f s horizon, "
                "%u worker(s)\n",
                spec.cells, spec.clients_per_cell, total_clients,
                spec.seconds, resolved);

    // Serial reference pass: the determinism anchor and the speedup
    // denominator.
    const Measurement serial = measure(mc, 1);
    Measurement par = serial;
    double speedup = 1.0;
    if (resolved > 1) {
      par = measure(mc, resolved);
      expect_ok(par.digest == serial.digest,
                "parallel digest bit-identical to serial");
      expect_ok(par.events == serial.events, "event count worker-invariant");
      speedup = par.wall_s > 0 ? serial.wall_s / par.wall_s : 0.0;
    } else if (smoke_only) {
      // One hardware thread: re-run serial and still require digest
      // stability across repeated runs.
      const Measurement again = measure(mc, 1);
      expect_ok(again.digest == serial.digest,
                "repeated serial digest bit-identical");
    }
    expect_ok(serial.digest != 0, "replay digest folded the results");
    expect_ok(serial.backbone > 0, "backbone carried cross-cell traffic");

    const double eps = par.wall_s > 0
                           ? static_cast<double>(par.events) / par.wall_s
                           : 0.0;
    if (std::strcmp(spec.tag, "smoke") == 0) smoke_eps = eps;
    const double bytes_per_client_sec =
        static_cast<double>(par.bytes) /
        (static_cast<double>(total_clients) * spec.seconds);

    sec.row()
        .cell("bench", spec.tag)
        .cell("cells", spec.cells)
        .cell("clients", total_clients)
        .cell("sim_s", spec.seconds, 1)
        .cell("threads", resolved)
        .cell("wall_s", par.wall_s, 2)
        .cell("events", par.events)
        .cell("events_per_sec", eps, 0)
        .cell("bytes_per_client_sec", bytes_per_client_sec, 1)
        .cell("heap_bytes_per_client",
              serial.heap_bytes / static_cast<double>(total_clients), 0)
        .cell("backbone_msgs", par.backbone)
        .cell("speedup_vs_serial", speedup, 2);
  }
  rep.note("speedup_vs_serial is measured on this machine's core count; "
           "1.00 on a single-core runner is expected, not a regression");
  rep.note("refresh: Release build, quiet machine: "
           "scale_sweep --out=BENCH_scale.json");

  if (!check_path.empty()) {
    const int rc = bench::check_baseline(
        "scale_sweep", check_path, {{"smoke", "events_per_sec", smoke_eps}},
        0.5);
    if (rc != 0) return rc;
  }

  if (!out_path.empty()) {
    std::ofstream out{out_path};
    out << rep.json() << "\n";
  }
  rep.print();
  if (g_failures > 0) {
    std::fprintf(stderr, "scale_sweep: %d check(s) failed\n", g_failures);
    return 1;
  }
  return 0;
}
