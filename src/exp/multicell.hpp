// Multi-cell scale-out: N independent cells stepped in lockstep epochs.
//
// A Cell is a full cell partition — AP + wireless medium + proxy shard +
// its clients — owning an independent simulator and event queue (a
// ScenarioRun).  Cells share nothing mutable, so a MultiCellTestbed can
// advance all of them concurrently through exp::run_parallel.
//
// Cross-cell traffic crosses at the wired backbone only, and the backbone
// has a fixed latency L.  That bound makes conservative time-windowed
// synchronization exact rather than approximate: with epoch length L, a
// message emitted during epoch k (send time in [kL, (k+1)L)) arrives at
// send + L, which always falls inside epoch k+1's window [(k+1)L, (k+2)L).
// So cells advance one epoch in parallel, meet at a barrier, and the
// coordinator routes every outbox — in cell-id order, scheduling arrivals
// into the destination cells' event queues — before the next epoch begins.
// No cell ever receives an event in its past, and the exchange schedule is
// a pure function of the configuration, so replay digests are independent
// of worker count, hash salt, and cell execution order.
//
// The generator is deterministic by construction (no RNG): each cell emits
// a fixed-size message every `period`, phase-staggered by cell id, to
// destination cells in round-robin order (skipping itself) and to clients
// in round-robin order within the destination.  Arrivals enter the
// destination through a backbone gateway node on the wired LAN and flow
// down the normal proxy path: interception, per-client queueing, burst
// scheduling.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "exp/scenario.hpp"
#include "obs/metrics.hpp"
#include "transport/udp.hpp"

namespace pp::exp {

// Deterministic cross-cell traffic (no RNG anywhere in the generator).
struct CrossTrafficSpec {
  bool enabled = true;
  sim::Duration period = sim::Time::ms(250);  // per-cell emission period
  std::uint32_t bytes = 600;                  // payload per message
  int fanout = 1;                             // messages per emission
  double start_s = 1.0;                       // first emission (plus phase)
};

struct MultiCellConfig {
  int num_cells = 2;
  // Per-cell scenario; cell c runs it with seed = cell.seed + 9973 * c so
  // cells are statistically independent but individually reproducible.
  ScenarioConfig cell;
  // Wired backbone latency between any two cells; also the epoch length
  // (see the header comment — the equality is what makes the windowed
  // exchange conservative).
  sim::Duration backbone_latency = sim::Time::ms(20);
  CrossTrafficSpec cross;
};

struct MultiCellResult {
  std::vector<ScenarioResult> cells;
  // FNV-1a fold of the per-cell observer digests in cell-id order; 0 when
  // observability is compiled out.  Bit-identical across worker counts.
  std::uint64_t digest = 0;
  // Fleet-wide aggregation of the per-cell metrics registries (counters
  // and histograms summed, time gauges unioned), merged at teardown in
  // cell-id order.
  obs::MetricsRegistry merged;
  std::uint64_t backbone_messages = 0;  // routed across the backbone
  std::uint64_t events_total = 0;       // sum of per-cell events fired
};

// One cell partition: an independent ScenarioRun plus the backbone
// gateway (a wired server node whose UDP socket injects arrivals into the
// cell) and the outbox the coordinator drains at each epoch barrier.
class Cell {
 public:
  struct Msg {
    int dst_cell;
    int dst_client;       // client index within the destination cell
    std::uint32_t bytes;
    sim::Time sent_at;    // source-cell send time
  };

  Cell(int id, const MultiCellConfig& cfg);

  int id() const { return id_; }
  ScenarioRun& run() { return *run_; }
  std::vector<Msg>& outbox() { return outbox_; }

  // Advance this cell's simulator to `t` (one epoch; called from a worker
  // thread — touches only this cell's state).
  void advance(sim::Time t) { run_->advance(t); }

  // Schedule a routed message to arrive at `at` (>= this cell's clock):
  // the gateway sends a UDP datagram to the target client, entering the
  // proxy's normal downlink path.
  void inject(const Msg& m, sim::Time at);

 private:
  void emit(sim::Time now);

  int id_;
  int num_cells_;
  CrossTrafficSpec cross_;
  std::unique_ptr<ScenarioRun> run_;
  net::Node* gateway_ = nullptr;  // owned by the cell's Testbed
  std::unique_ptr<transport::UdpSocket> gw_sock_;
  std::vector<Msg> outbox_;
  int rr_cell_ = 0;    // round-robin destination cell cursor
  int rr_client_ = 0;  // round-robin destination client cursor
};

class MultiCellTestbed {
 public:
  explicit MultiCellTestbed(const MultiCellConfig& cfg);
  ~MultiCellTestbed();

  int num_cells() const { return static_cast<int>(cells_.size()); }
  Cell& cell(int i) { return *cells_.at(static_cast<std::size_t>(i)); }

  // Run all cells to the configured horizon in lockstep epochs on
  // `threads` workers (0 = resolve from PP_THREADS / hardware), then
  // finalize and collect.  `cell_order` (when non-empty) permutes the
  // order cells are *dispatched* in — results must not depend on it; the
  // determinism tests exercise that.
  MultiCellResult run(unsigned threads = 0,
                      const std::vector<int>& cell_order = {});

 private:
  MultiCellConfig cfg_;
  std::vector<std::unique_ptr<Cell>> cells_;
  std::uint64_t backbone_messages_ = 0;
};

MultiCellResult run_multicell(const MultiCellConfig& cfg,
                              unsigned threads = 0);

}  // namespace pp::exp
