// Multi-cell scale-out: N independent cells, each run to the horizon alone.
//
// A Cell is a full cell partition — AP + wireless medium + proxy shard +
// its clients — owning an independent simulator and event queue (a
// ScenarioRun).  Cells share nothing mutable, so a MultiCellTestbed can
// advance all of them concurrently through exp::run_parallel.
//
// Cross-cell traffic crosses at the wired backbone only, with a fixed
// latency L.  Its generator is deterministic by construction (no RNG):
// source cell s sends its m-th message (0-based) at
//   start + phase_s + floor(m / fanout) * period,   phase_s = period * s / n
// to client (m mod clients) of cell (s + 1 + m mod (n-1)) mod n — that is,
// round-robin over the other cells and over the destination's clients.
// Every message is therefore a pure function of the configuration, so a
// destination cell knows its whole inbound schedule at construction: it
// arms one self-re-arming arrival event per source in its own event
// queue, and no cell ever waits on another.  Arrivals enter the
// destination through a backbone gateway node on the wired LAN and flow
// down the normal proxy path: interception, per-client queueing, burst
// scheduling.  Replay digests are independent of worker count, hash salt
// and the order cells run in.
//
// A generator whose messages depend on simulation state (handoff, say)
// would need a synchronization barrier again; none exists today.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "exp/scenario.hpp"
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
  // Wired backbone latency between any two cells.
  sim::Duration backbone_latency = sim::Time::ms(20);
  CrossTrafficSpec cross;
};

struct MultiCellResult {
  std::vector<ScenarioResult> cells;
  // FNV-1a fold of the per-cell observer digests in cell-id order; 0 when
  // observability is compiled out.  Bit-identical across worker counts.
  std::uint64_t digest = 0;
  // Messages sent at or before the horizon (some arrive after it).
  std::uint64_t backbone_messages = 0;
  std::uint64_t events_total = 0;  // sum of per-cell events fired
};

// One cell partition: an independent ScenarioRun plus the backbone
// gateway (a wired server node whose UDP socket injects arrivals into the
// cell) and the arrival events that carry every other cell's messages.
class Cell {
 public:
  Cell(int id, const MultiCellConfig& cfg);

  int id() const { return id_; }
  ScenarioRun& run() { return *run_; }

 private:
  // Schedule the arrival here of source cell `src`'s m-th message; each
  // arrival re-arms the source's next message to this cell.
  void arm(int src, std::int64_t m);
  void arrive(int src, std::int64_t m);

  int id_;
  int num_cells_;
  CrossTrafficSpec cross_;
  sim::Duration latency_;
  std::unique_ptr<ScenarioRun> run_;
  std::unique_ptr<transport::UdpSocket> gw_sock_;
};

class MultiCellTestbed {
 public:
  explicit MultiCellTestbed(const MultiCellConfig& cfg);
  ~MultiCellTestbed();

  int num_cells() const { return static_cast<int>(cells_.size()); }
  Cell& cell(int i) { return *cells_.at(static_cast<std::size_t>(i)); }

  // Run every cell to the configured horizon on `threads` workers (0 =
  // resolve from PP_THREADS / hardware), then finalize and collect in
  // cell-id order.
  MultiCellResult run(unsigned threads = 0);

 private:
  MultiCellConfig cfg_;
  std::vector<std::unique_ptr<Cell>> cells_;
};

MultiCellResult run_multicell(const MultiCellConfig& cfg,
                              unsigned threads = 0);

}  // namespace pp::exp
