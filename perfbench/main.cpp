// perfbench: runs one benchmark workload and prints its metrics.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// --trace 0 repeats untraced passes over the workload's grid for about
// <s> wall seconds and prints the end-to-end metrics.  --trace 1 alternates
// an untraced pass with a traced one (500 ms advance slices, observer
// retained, spans around each call into the simulator) for about <s>
// seconds and prints the per-layer metrics: counts from the untraced pass,
// times from the traced one.  Every traced scenario must reproduce its
// untraced replay digest, which shows the spans do not perturb the run.
//
// Passes are serial: one process, one worker thread, no sweep cache; between
// scenarios the thread moves to the least disturbed CPU (CpuPicker).  The
// first untraced pass measures memory and is not timed; run-phase times
// come from each scenario's fastest timed pass.  A tripped
// PP_CHECK, a failed audit or a failed output check counts as one failed
// scenario instead of ending the run.  The last line of stdout is one JSON
// object: {"correct", "attempted", "failed", "metrics": {name: {"value",
// "unit"}}}.
#include <malloc.h>
#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "check/check.hpp"
#include "exp/digest.hpp"
#include "exp/multicell.hpp"
#include "exp/scenario.hpp"
#include "workload/video.hpp"
#include "workloads.hpp"

namespace {

using Clock = std::chrono::steady_clock;
using pp::sim::Time;

// pp-lint: allow(naked-duration): wall-clock measurement, not sim state
double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// -- Memory (Linux /proc) ---------------------------------------------------------

std::uint64_t status_bytes(const char* key) {
  std::ifstream in{"/proc/self/status"};
  const std::string prefix = std::string{key} + ":";
  for (std::string line; std::getline(in, line);)
    if (line.rfind(prefix, 0) == 0)
      return std::stoull(line.substr(prefix.size())) * 1024;
  throw std::runtime_error(std::string{"no "} + key + " in /proc/self/status");
}

// Hands freed heap pages back to the kernel and restarts the peak-RSS
// high-water mark, so the next VmHWM reading covers only what runs after
// this call.  Returns the resident size the window starts from.
std::uint64_t begin_memory_window() {
  malloc_trim(0);
  std::ofstream clear{"/proc/self/clear_refs"};
  clear << "5";
  clear.close();
  if (!clear) throw std::runtime_error("cannot reset VmHWM via clear_refs");
  return status_bytes("VmRSS");
}

// -- Statistics --------------------------------------------------------------------

// Linear interpolation between closest ranks; 0 for no samples.
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

// -- CPU choice --------------------------------------------------------------------

// The allowed CPUs of a shared host are not equally fast: at any moment some
// of them share a core or cache with a busy tenant and run memory-bound code
// up to twice as slowly, and which ones changes every few seconds.  The
// kernel's scheduler cannot see that.  So four times a second, between
// scenarios, the benchmark times a short memory-bound probe on every allowed
// CPU and pins itself to the fastest: it runs where it is least disturbed,
// as it takes each scenario's fastest pass.  The simulator runs unchanged on
// one thread; only where that thread runs is chosen.
class CpuPicker {
 public:
  CpuPicker() : table_(kWords) {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) == 0)
      for (int c = 0; c < CPU_SETSIZE; ++c)
        if (CPU_ISSET(c, &set)) cpus_.push_back(c);
    picks_.assign(cpus_.size(), 0);
  }

  // Re-picks the CPU when kRepickSeconds have passed since the last pick.
  void maybe_pick() {
    if (cpus_.size() < 2) return;
    const auto now = Clock::now();
    if (picked_ && seconds_between(last_, now) < kRepickSeconds) return;
    std::size_t best = 0;
    double best_s = 0;
    for (std::size_t i = 0; i < cpus_.size(); ++i) {
      if (!pin(cpus_[i])) continue;
      const double t = std::min(probe(), probe());
      if (best_s == 0 || t < best_s) {
        best = i;
        best_s = t;
      }
    }
    pin(cpus_[best]);
    ++picks_[best];
    picked_ = true;
    last_ = Clock::now();
  }

  // "cpu:picks" for every allowed CPU, for the run log.
  std::string summary() const {
    std::string out;
    for (std::size_t i = 0; i < cpus_.size(); ++i)
      out += (i ? " " : "") + std::to_string(cpus_[i]) + ":" +
             std::to_string(picks_[i]);
    return out;
  }

 private:
  static constexpr std::size_t kWords = (2u << 20) / 8;  // a 2 MiB table
  static constexpr int kSteps = 50000;
  static constexpr double kRepickSeconds = 0.25;

  static bool pin(int cpu) {
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpu, &set);
    return sched_setaffinity(0, sizeof set, &set) == 0;
  }

  // Random read-modify-writes over the table; returns wall seconds.
  double probe() {
    const auto t0 = Clock::now();
    for (int k = 0; k < kSteps; ++k) {
      x_ ^= x_ << 13;
      x_ ^= x_ >> 7;
      x_ ^= x_ << 17;
      table_[x_ % kWords] += x_;
    }
    return seconds_between(t0, Clock::now());
  }

  std::vector<std::uint64_t> table_;
  std::vector<int> cpus_;
  std::vector<std::uint64_t> picks_;
  std::uint64_t x_ = 88172645463325252ULL;
  bool picked_ = false;
  Clock::time_point last_{};
};

// -- One scenario ------------------------------------------------------------------

constexpr pp::sim::Duration kSlice = Time::ms(500);

// Per-layer counts of one untraced pass.  They depend on the inputs alone,
// so they repeat exactly from run to run.
struct Ledger {
  pp::obs::MetricsRegistry components;  // every component counter, summed
  std::uint64_t events_fired = 0;
  std::uint64_t events_scheduled = 0;
  std::uint64_t events_cancelled = 0;
  std::uint64_t max_slab_slots = 0;  // largest scenario (a fleet: all cells)
  std::uint64_t trace_frames = 0;
  std::uint64_t timeline_events = 0;
  std::uint64_t backbone_msgs = 0;

  // Folds one cell's testbed in; returns its event-slab size.
  std::uint64_t add(pp::exp::Testbed& bed, std::uint64_t frames) {
    const pp::sim::Simulator& sim = bed.sim();
    events_fired += sim.events_fired();
    events_scheduled += sim.queue_stats().scheduled;
    events_cancelled += sim.queue_stats().cancelled;
    trace_frames += frames;
    if (const auto* m = bed.metrics()) components.merge_from(*m);
    if (const auto* tl = bed.timeline())
      timeline_events += tl->size() + tl->dropped();
    return sim.queue_slab_slots();
  }

  std::uint64_t counter(const std::string& name) const {
    const auto* c = components.find_counter(name);
    return c ? c->value() : 0;
  }
};

struct Sample {
  double setup_s = 0;   // construction
  double run_s = 0;     // advance (or MultiCellTestbed::run) + finish
  double finish_s = 0;  // the finish part of run_s (traced runs)
  double cell_seconds = 0;  // simulated time summed over cells
  // Memory passes: peak RSS, and its growth over the RSS before
  // construction, for a scenario of `clients` clients.
  std::uint64_t peak_rss = 0;
  double rss_growth = 0;
  std::size_t clients = 0;
  std::uint64_t digest = 0;       // replay digest; 0 without observability
  std::vector<double> slices_us;  // traced: wall time per 500 ms slice
  std::string error;              // empty when every check passed

  bool ok() const { return error.empty(); }
};

// Output check for every scenario: each client saved some energy but not
// all of it, and the mean loss over the scenario's clients (every cell's,
// on the fleet) stays under the scenario's bound.
void check_clients(std::span<const pp::exp::ScenarioResult> cells,
                   double max_mean_loss_pct) {
  double loss = 0;
  std::size_t clients = 0;
  for (const auto& cell : cells)
    for (const auto& c : cell.clients) {
      if (!(c.saved_pct > 0 && c.saved_pct < 100))
        throw std::runtime_error("client " + c.ip.str() + " saved_pct " +
                                 std::to_string(c.saved_pct) +
                                 " outside (0, 100)");
      loss += c.loss_pct;
      ++clients;
    }
  if (clients == 0) throw std::runtime_error("no clients in result");
  const double mean = loss / static_cast<double>(clients);
  if (!(mean < max_mean_loss_pct))
    throw std::runtime_error("mean loss " + std::to_string(mean) +
                             "% not under " +
                             std::to_string(max_mean_loss_pct) + "%");
}

// How a pass runs its scenarios.
struct Mode {
  bool traced = false;  // 500 ms slices, observer kept, spans recorded
  // Trim the heap and reset the RSS high-water mark before each scenario,
  // so its memory growth can be measured.  Every scenario then starts on
  // a cold heap, so only one pass of a run does this.
  bool memory = false;
  Ledger* ledger = nullptr;  // collects the per-layer counts when set
};

void finish_memory(Sample& s, std::uint64_t rss0, std::size_t clients) {
  s.peak_rss = status_bytes("VmHWM");
  s.rss_growth = static_cast<double>(s.peak_rss - rss0);
  s.clients = clients;
}

Sample run_cell(pp::exp::ScenarioConfig cfg, double max_mean_loss_pct,
                const Mode& mode) {
  Sample s;
  const bool traced = mode.traced;
  cfg.keep_obs = traced;
  const std::uint64_t rss0 = mode.memory ? begin_memory_window() : 0;
  try {
    const auto t0 = Clock::now();
    pp::exp::ScenarioRun run{cfg};
    const auto t1 = Clock::now();
    const Time horizon = run.horizon();
    if (traced) {
      s.slices_us.reserve(
          static_cast<std::size_t>(horizon.count_ns() / kSlice.count_ns()) + 1);
      auto prev = t1;
      for (Time t = Time::zero(); t < horizon;) {
        t = std::min(t + kSlice, horizon);
        run.advance(t);
        const auto now = Clock::now();
        s.slices_us.push_back(1e6 * seconds_between(prev, now));
        prev = now;
      }
    } else {
      run.advance(horizon);
    }
    const std::uint64_t frames = run.bed().monitor().frames();
    const auto t2 = Clock::now();
    const pp::exp::ScenarioResult res = run.finish();
    const auto t3 = Clock::now();
    s.setup_s = seconds_between(t0, t1);
    s.run_s = seconds_between(t1, t3);
    s.finish_s = seconds_between(t2, t3);
    s.cell_seconds = horizon.to_seconds();
    check_clients({&res, 1}, max_mean_loss_pct);
    if (const auto obs = run.bed().observer())
      s.digest = pp::exp::observer_digest(*obs);
    if (Ledger* l = mode.ledger)
      l->max_slab_slots = std::max(l->max_slab_slots, l->add(run.bed(), frames));
  } catch (const std::exception& e) {
    s.error = e.what();
  }
  if (mode.memory) finish_memory(s, rss0, cfg.roles.size());
  return s;
}

Sample run_fleet(pp::exp::MultiCellConfig mc, double max_mean_loss_pct,
                 const Mode& mode) {
  Sample s;
  const bool traced = mode.traced;
  mc.cell.keep_obs = traced;
  const Time horizon = Time::seconds(mc.cell.duration_s);
  std::vector<Clock::time_point> stamps;
  stamps.reserve(
      static_cast<std::size_t>(horizon.count_ns() / kSlice.count_ns()) + 1);
  const std::uint64_t rss0 = mode.memory ? begin_memory_window() : 0;
  try {
    const auto t0 = Clock::now();
    pp::exp::MultiCellTestbed bed{mc};
    const auto t1 = Clock::now();
    if (traced) {
      // MultiCellTestbed::run is one call, so the slices are stamped from
      // inside: a no-op event in the last cell at every 500 ms.  With one
      // worker the cells advance in id order, so when the last cell reaches
      // t every cell has.  The event touches no simulation state, and the
      // digest comparison with the untraced pass checks exactly that.
      pp::sim::Simulator& last = bed.cell(bed.num_cells() - 1).run().bed().sim();
      for (Time t = kSlice; t <= horizon; t = t + kSlice)
        last.at(t, [&stamps] { stamps.push_back(Clock::now()); });
    }
    const pp::exp::MultiCellResult res = bed.run(1);
    const auto t3 = Clock::now();
    s.setup_s = seconds_between(t0, t1);
    s.run_s = seconds_between(t1, t3);
    s.cell_seconds = static_cast<double>(mc.num_cells) * horizon.to_seconds();
    if (traced && !stamps.empty()) {
      auto prev = t1;
      for (const auto& st : stamps) {
        s.slices_us.push_back(1e6 * seconds_between(prev, st));
        prev = st;
      }
      s.finish_s = seconds_between(stamps.back(), t3);
    }
    check_clients(res.cells, max_mean_loss_pct);
    std::uint64_t delivered = 0;
    for (const auto& cell : res.cells)
      for (const auto& c : cell.clients) delivered += c.bytes_received;
    if (res.backbone_messages == 0)
      throw std::runtime_error("backbone carried no messages");
    if (delivered == 0) throw std::runtime_error("no bytes delivered");
    s.digest = res.digest;
    if (Ledger* l = mode.ledger) {
      std::uint64_t slab = 0;
      for (int c = 0; c < bed.num_cells(); ++c) {
        pp::exp::Testbed& cell = bed.cell(c).run().bed();
        slab += l->add(cell, cell.monitor().frames());
      }
      l->max_slab_slots = std::max(l->max_slab_slots, slab);
      l->backbone_msgs += res.backbone_messages;
    }
  } catch (const std::exception& e) {
    s.error = e.what();
  }
  if (mode.memory)
    finish_memory(s, rss0, static_cast<std::size_t>(mc.num_cells) *
                               mc.cell.roles.size());
  return s;
}

// The workload layer's own cost: one video trace per distinct fidelity per
// cell, as each cell's video server generates them.  Returns milliseconds.
double time_video_traces(const perfbench::Workload& w) {
  std::vector<std::pair<std::uint64_t, const std::vector<int>*>> cells;
  for (const auto& c : w.cells) cells.push_back({c.cfg.seed, &c.cfg.roles});
  if (w.fleet)
    for (int c = 0; c < w.fleet->num_cells; ++c)
      cells.push_back({w.fleet->cell.seed + 9973ULL * static_cast<unsigned>(c),
                       &w.fleet->cell.roles});
  std::size_t packets = 0;
  const auto t0 = Clock::now();
  for (const auto& [seed, roles] : cells) {
    bool seen[pp::workload::kNumFidelities] = {};
    for (const int r : *roles) {
      if (!pp::exp::is_video_role(r) || seen[r]) continue;
      seen[r] = true;
      packets += pp::workload::generate_video_trace(
                     pp::workload::kFidelities[r].effective_kbps,
                     seed + static_cast<std::uint64_t>(r))
                     .size();
    }
  }
  const auto t1 = Clock::now();
  // Every workload streams video; an empty trace is a workload-layer bug.
  if (packets == 0) throw std::runtime_error("no video trace generated");
  return 1e3 * seconds_between(t0, t1);
}

// -- Passes ------------------------------------------------------------------------

struct Pass {
  std::vector<Sample> samples;  // grid order
  Ledger ledger;                // untraced passes of a traced run only
  double video_trace_ms = 0;    // traced passes only

  double total(double Sample::*field) const {
    double t = 0;
    for (const auto& s : samples)
      if (s.ok()) t += s.*field;
    return t;
  }
  double sim_rate() const {
    const double run = total(&Sample::run_s);
    return run > 0 ? total(&Sample::cell_seconds) / run : 0;
  }
};

// `count` collects the per-layer counts into the pass's ledger; `cpus`,
// when set, moves the run to the least disturbed CPU between scenarios.
Pass run_pass(const perfbench::Workload& w, CpuPicker* cpus, bool traced,
              bool memory, bool count) {
  Pass p;
  const Mode mode{traced, memory, count ? &p.ledger : nullptr};
  if (w.fleet) {
    if (cpus) cpus->maybe_pick();
    p.samples.push_back(run_fleet(*w.fleet, w.fleet_max_mean_loss_pct, mode));
  }
  for (const auto& c : w.cells) {
    if (cpus) cpus->maybe_pick();
    p.samples.push_back(run_cell(c.cfg, c.max_mean_loss_pct, mode));
  }
  if (traced) p.video_trace_ms = time_video_traces(w);
  return p;
}

// Interference from other work on a shared host only ever slows a
// scenario down, so each scenario's fastest pass is its least disturbed
// time.  Scenarios that failed in every pass are left out.
struct Fastest {
  std::vector<double> scenario_ms;  // construction through finish
  double run_s = 0;                 // summed over scenarios
  double cell_seconds = 0;

  double sim_rate() const { return run_s > 0 ? cell_seconds / run_s : 0; }
};

Fastest fastest(std::span<const Pass> passes) {
  Fastest f;
  for (std::size_t i = 0; i < passes.front().samples.size(); ++i) {
    const Sample* best = nullptr;
    double best_total = 0;
    for (const auto& p : passes) {
      const Sample& s = p.samples[i];
      if (!s.ok()) continue;
      if (!best || s.run_s < best->run_s) best = &s;
      const double total = s.setup_s + s.run_s;
      if (best_total == 0 || total < best_total) best_total = total;
    }
    if (!best) continue;
    f.scenario_ms.push_back(1e3 * best_total);
    f.run_s += best->run_s;
    f.cell_seconds += best->cell_seconds;
  }
  return f;
}

// Runs `pass` once, then again while one more pass of the last one's
// length still fits in `budget_s`.
template <typename F>
void repeat_for(double budget_s, F&& pass) {
  const auto start = Clock::now();
  for (;;) {
    const auto t0 = Clock::now();
    pass();
    const auto t1 = Clock::now();
    if (seconds_between(start, t1) + seconds_between(t0, t1) > budget_s)
      return;
  }
}

// -- Result ------------------------------------------------------------------------

struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> values;
};

void tally(Result& r, std::span<const Pass> passes) {
  for (const auto& p : passes)
    for (std::size_t i = 0; i < p.samples.size(); ++i) {
      ++r.attempted;
      if (p.samples[i].ok()) continue;
      ++r.failed;
      std::printf("FAILED scenario %zu: %s\n", i, p.samples[i].error.c_str());
    }
}

// Counts scenarios whose digest differs from the reference pass's.
std::uint64_t digest_mismatches(const Pass& ref, const Pass& other) {
  std::uint64_t bad = 0;
  for (std::size_t i = 0; i < ref.samples.size(); ++i) {
    const Sample& a = ref.samples[i];
    const Sample& b = other.samples[i];
    if (a.ok() && b.ok() && a.digest != b.digest) ++bad;
  }
  return bad;
}

Result untraced(const perfbench::Workload& w, double budget_s) {
  const auto start = Clock::now();
  // The first pass measures memory and warms the heap and caches; it is not
  // timed, and runs before the CPU picker's table exists so that table does
  // not count towards the peak.  The timed passes after it run on a warm
  // heap, as a battery in one process does.
  std::vector<Pass> passes;
  passes.push_back(run_pass(w, nullptr, false, true, false));
  CpuPicker cpus;
  repeat_for(budget_s - seconds_between(start, Clock::now()), [&] {
    passes.push_back(run_pass(w, &cpus, false, false, false));
  });
  const std::span<const Pass> timed = std::span{passes}.subspan(1);

  Result r;
  tally(r, passes);
  // Same inputs, same run: every pass must reproduce the first one.
  for (const auto& p : timed) {
    const std::uint64_t bad = digest_mismatches(passes.front(), p);
    if (bad > 0) {
      r.correct = false;
      std::printf("NONDETERMINISTIC: %llu scenario digests changed between "
                  "passes\n", static_cast<unsigned long long>(bad));
    }
  }

  std::vector<double> setups;
  for (const auto& p : timed) {
    setups.push_back(p.total(&Sample::setup_s));
    std::printf("pass %zu: sim_rate %.1f cell-s/s, setup %.4f s\n",
                setups.size(), p.sim_rate(), setups.back());
  }
  // Memory comes from the first pass alone: later passes reuse a heap the
  // earlier ones fragmented, so their footprint grows with the pass count.
  double peak = 0, growth = 0, clients = 0;
  for (const auto& s : passes.front().samples) {
    peak = std::max(peak, static_cast<double>(s.peak_rss));
    if (!s.ok()) continue;
    growth += s.rss_growth;
    clients += static_cast<double>(s.clients);
  }
  const Fastest best = fastest(timed);
  std::printf("%zu timed pass(es); sim_rate and scenario_ms from the fastest "
              "pass of each of %zu scenarios; CPU picks (cpu:count) %s\n",
              timed.size(), best.scenario_ms.size(), cpus.summary().c_str());
  r.values = {
      {"sim_rate", best.sim_rate()},
      {"setup_s", median(setups)},
      {"peak_rss_mb", peak / 1e6},
      {"bytes_per_client", clients > 0 ? growth / clients : 0},
      {"scenario_ms.p50", percentile(best.scenario_ms, 0.5)},
      {"scenario_ms.p90", percentile(best.scenario_ms, 0.9)},
  };
  return r;
}

Result traced(const perfbench::Workload& w, double budget_s) {
  std::vector<Pass> plain, spans;
  CpuPicker cpus;
  repeat_for(budget_s, [&] {
    plain.push_back(run_pass(w, &cpus, false, false, plain.empty()));
    spans.push_back(run_pass(w, &cpus, true, false, false));
  });

  Result r;
  tally(r, plain);
  tally(r, spans);
  std::uint64_t bad = 0;
  for (std::size_t k = 0; k < plain.size(); ++k)
    bad += digest_mismatches(plain[k], spans[k]);
  // Reported per pass, so the count does not depend on how many passes fit.
  std::uint64_t checked = 0;
  for (const auto& s : plain.front().samples)
    if (s.ok() && s.digest != 0) ++checked;
  if (bad > 0) {
    r.correct = false;
    std::printf("PERTURBED: %llu traced scenario digests differ from the "
                "untraced run\n", static_cast<unsigned long long>(bad));
  }
  std::printf("%zu untraced + %zu traced pass(es); %llu digests checked per "
              "pass (0 when built with PP_OBS_DISABLED)\n",
              plain.size(), spans.size(),
              static_cast<unsigned long long>(checked));

  std::vector<double> builds, runs, traces, slices, setup_ms, finish_ms;
  for (const auto& p : spans) {
    builds.push_back(p.total(&Sample::setup_s));
    runs.push_back(p.total(&Sample::run_s));
    traces.push_back(p.video_trace_ms);
    for (const auto& s : p.samples) {
      if (!s.ok()) continue;
      slices.insert(slices.end(), s.slices_us.begin(), s.slices_us.end());
      setup_ms.push_back(1e3 * s.setup_s);
      finish_ms.push_back(1e3 * s.finish_s);
    }
  }

  const Ledger& l = plain.front().ledger;
  const auto ratio = [](double num, double den) {
    return den > 0 ? num / den : 0.0;
  };
  const auto count = [&](const char* name) {
    return static_cast<double>(l.counter(name));
  };
  const double run_s = median(runs);
  r.values = {
      {"sim.events_fired", static_cast<double>(l.events_fired)},
      {"sim.events_per_s", ratio(static_cast<double>(l.events_fired), run_s)},
      {"sim.cancel_ratio", ratio(static_cast<double>(l.events_cancelled),
                                 static_cast<double>(l.events_scheduled))},
      {"sim.slab_slots", static_cast<double>(l.max_slab_slots)},
      {"sim.slice_us.p50", percentile(slices, 0.5)},
      {"sim.slice_us.p99", percentile(slices, 0.99)},
      {"net.frames_sent", count("net.frames_sent")},
      {"net.bursts", count("net.bursts")},
      {"net.frames_per_burst",
       ratio(count("net.frames_sent"), count("net.bursts"))},
      {"net.frames_missed", count("net.frames_missed")},
      {"ap.forwarded", count("ap.downlink_forwarded")},
      {"ap.dropped", count("ap.downlink_dropped")},
      {"proxy.queued_packets", count("proxy.queued_packets")},
      {"proxy.queue_drop_ratio",
       ratio(count("proxy.queue_drops"), count("proxy.queued_packets"))},
      {"proxy.schedules_sent", count("proxy.schedules_sent")},
      {"proxy.empty_burst_markers", count("proxy.empty_burst_markers")},
      {"proxy.churn.renegotiations", count("proxy.churn.renegotiations")},
      {"sched.policy.lqf.starved", count("sched.policy.lqf.starved")},
      {"sched.policy.opp.deferrals", count("sched.policy.opp.deferrals")},
      {"sched.policy.opp.forced", count("sched.policy.opp.forced")},
      {"sched.policy.prob.skips", count("sched.policy.prob.skips")},
      {"sched.policy.prob.forced", count("sched.policy.prob.forced")},
      {"client.schedules_missed", count("client.schedules_missed")},
      {"client.resyncs", count("client.resyncs")},
      {"client.assoc.retries", count("client.assoc.retries")},
      {"tcp.retransmissions", count("tcp.retransmissions")},
      {"tcp.timeouts", count("tcp.timeouts")},
      {"channel.state.attempts", count("channel.state.attempts")},
      {"channel.state.losses", count("channel.state.losses")},
      {"fault.windows_activated", count("fault.windows_activated")},
      {"trace.frames", static_cast<double>(l.trace_frames)},
      {"obs.timeline_events", static_cast<double>(l.timeline_events)},
      {"workload.video_trace_ms", median(traces)},
      {"exp.setup_ms", median(setup_ms)},
      {"exp.finish_ms", median(finish_ms)},
      {"multicell.build_s", median(builds)},
      {"multicell.run_s", run_s},
      {"multicell.backbone_msgs", static_cast<double>(l.backbone_msgs)},
      {"tracing.overhead_pct",
       100.0 * (1.0 - ratio(fastest(spans).sim_rate(),
                            fastest(plain).sim_rate()))},
      {"tracing.digests_checked", static_cast<double>(checked)},
  };
  return r;
}

// Prints the metrics table, then the result line, in catalogue order.
void emit(Result& r, const std::vector<perfbench::MetricDef>& catalogue) {
  if (r.values.size() != catalogue.size())
    throw std::logic_error("metric set does not match the catalogue");
  std::string metrics;
  for (const auto& def : catalogue) {
    const auto it = r.values.find(def.name);
    if (it == r.values.end())
      throw std::logic_error(std::string{"missing metric "} + def.name);
    double v = it->second;
    if (!std::isfinite(v)) {
      r.correct = false;
      v = 0;
    }
    std::printf("  %-28s %20.6f %s\n", def.name, v, def.unit);
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    if (!metrics.empty()) metrics += ", ";
    metrics += std::string{"\""} + def.name + "\": {\"value\": " + buf +
               ", \"unit\": \"" + def.unit + "\"}";
  }
  const double fail_rate = r.attempted > 0
                               ? static_cast<double>(r.failed) /
                                     static_cast<double>(r.attempted)
                               : 1.0;
  std::printf("scenarios attempted %llu, failed %llu, fail_rate %.6f\n",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed), fail_rate);
  if (r.failed > 0) r.correct = false;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              r.correct ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed), metrics.c_str());
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1>\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 0;
  double budget_s = 0;
  int trace = -1;
  try {
    for (int i = 1; i + 1 < argc; i += 2) {
      const std::string key = argv[i];
      const std::string val = argv[i + 1];
      if (key == "--workload") workload = val;
      else if (key == "--seed") seed = std::stoull(val);
      else if (key == "--seconds") budget_s = std::stod(val);
      else if (key == "--trace") trace = std::stoi(val);
      else return usage();
    }
  } catch (const std::exception&) {
    return usage();
  }
  if (argc % 2 != 1 || workload.empty() || !(budget_s > 0) ||
      (trace != 0 && trace != 1))
    return usage();

  perfbench::Workload w;
  try {
    w = perfbench::make_workload(workload, seed);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return usage();
  }

  // A violated invariant fails its scenario instead of aborting the run.
  const pp::check::ScopedFailureHandler throwing{pp::check::throwing_handler};
  std::printf("perfbench: %s, seed %llu, %s, %.0f s budget\n",
              workload.c_str(), static_cast<unsigned long long>(seed),
              trace ? "traced" : "untraced", budget_s);
  Result r = trace ? traced(w, budget_s) : untraced(w, budget_s);
  emit(r, trace ? perfbench::per_layer_metrics()
                : perfbench::end_to_end_metrics());
  return 0;
}
