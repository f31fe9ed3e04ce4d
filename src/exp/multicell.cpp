#include "exp/multicell.hpp"

#include <functional>
#include <stdexcept>

#include "exp/digest.hpp"
#include "exp/parallel.hpp"

namespace pp::exp {

namespace {

// Backbone arrivals enter the destination cell as plain UDP datagrams on
// this well-known port; clients have no listener (the payload is sink
// traffic), but the datagram still rides the full proxy downlink path.
constexpr net::Port kBackbonePort = 7977;

bool carries_traffic(const MultiCellConfig& cfg) {
  return cfg.cross.enabled && cfg.num_cells > 1 && cfg.cross.fanout > 0;
}

// Source cell `src`'s first send, phase-staggered by cell id so the
// backbone pattern interleaves deterministically instead of synchronizing.
sim::Time first_send(const CrossTrafficSpec& cross, int src, int num_cells) {
  return sim::Time::seconds(cross.start_s) +
         sim::Time::ns(cross.period.count_ns() * src / num_cells);
}

// Messages sent at or before `horizon`, summed over sources.
std::uint64_t messages_sent(const MultiCellConfig& cfg, sim::Time horizon) {
  if (!carries_traffic(cfg)) return 0;
  std::uint64_t emissions = 0;
  for (int src = 0; src < cfg.num_cells; ++src) {
    const sim::Time first = first_send(cfg.cross, src, cfg.num_cells);
    if (first <= horizon)
      emissions += static_cast<std::uint64_t>(
          (horizon - first).count_ns() / cfg.cross.period.count_ns() + 1);
  }
  return emissions * static_cast<std::uint64_t>(cfg.cross.fanout);
}

}  // namespace

Cell::Cell(int id, const MultiCellConfig& cfg)
    : id_{id},
      num_cells_{cfg.num_cells},
      cross_{cfg.cross},
      latency_{cfg.backbone_latency} {
  ScenarioConfig cell_cfg = cfg.cell;
  // Statistically independent cells, each individually reproducible.
  cell_cfg.seed = cfg.cell.seed + 9973ULL * static_cast<std::uint64_t>(id);
  net::Node* gateway = nullptr;  // owned by the cell's Testbed
  run_ = std::make_unique<ScenarioRun>(
      cell_cfg, [this, &gateway](Testbed& bed) {
        // pp-lint: allow(hot-path-alloc): once per cell at construction
        gateway = &bed.add_server("backbone" + std::to_string(id_));
      });
  gw_sock_ = std::make_unique<transport::UdpSocket>(*gateway, kBackbonePort);

  if (!carries_traffic(cfg)) return;
  // Source src's messages to this cell are m = r, r + (n-1), r + 2(n-1),
  // ... with r = (id - src - 1) mod n.
  for (int src = 0; src < num_cells_; ++src) {
    if (src == id_) continue;
    arm(src, (id_ - src - 1 + num_cells_) % num_cells_);
  }
}

void Cell::arm(int src, std::int64_t m) {
  const sim::Time sent =
      first_send(cross_, src, num_cells_) + cross_.period * (m / cross_.fanout);
  run_->bed().sim().at(sent + latency_, [this, src, m] { arrive(src, m); });
}

void Cell::arrive(int src, std::int64_t m) {
  // Re-arm first: when fanout exceeds n-1 the next message lands at this
  // same instant, and it must still fire ahead of anything send_to
  // schedules for now.
  arm(src, m + num_cells_ - 1);
  const auto clients = static_cast<std::int64_t>(run_->config().roles.size());
  gw_sock_->send_to(testbed_client_ip(static_cast<int>(m % clients)),
                    kBackbonePort, cross_.bytes);
}

MultiCellTestbed::MultiCellTestbed(const MultiCellConfig& cfg) : cfg_{cfg} {
  if (cfg.num_cells < 1)
    throw std::invalid_argument("MultiCellTestbed: num_cells must be >= 1");
  if (cfg.backbone_latency <= sim::Time::zero())
    throw std::invalid_argument(
        "MultiCellTestbed: backbone_latency must be positive");
  if (carries_traffic(cfg) && cfg.cross.period <= sim::Time::zero())
    throw std::invalid_argument(
        "MultiCellTestbed: cross.period must be positive");
  cells_.reserve(static_cast<std::size_t>(cfg.num_cells));
  for (int c = 0; c < cfg.num_cells; ++c)
    cells_.push_back(std::make_unique<Cell>(c, cfg));
}

MultiCellTestbed::~MultiCellTestbed() = default;

MultiCellResult MultiCellTestbed::run(unsigned threads) {
  const sim::Time horizon = sim::Time::seconds(cfg_.cell.duration_s);
  // Every arrival is already armed in its destination's own queue, so each
  // cell runs to the horizon alone, touching only its own state.
  // pp-lint: allow(hot-path-alloc): one task per cell, once per run
  std::vector<std::function<int()>> tasks;
  tasks.reserve(cells_.size());
  for (auto& cp : cells_) {
    tasks.push_back([run = &cp->run(), horizon] {
      run->advance(horizon);
      return 0;
    });
  }
  run_parallel(tasks, threads);

  // Teardown: finalize, collect and digest the cells serially in cell-id
  // order, so the results are independent of worker count.
  MultiCellResult res;
  res.cells.reserve(cells_.size());
  res.backbone_messages = messages_sent(cfg_, horizon);
  std::uint64_t digest = kDigestBasis;
  for (auto& cp : cells_) {
    res.cells.push_back(cp->run().finish());
    res.events_total += cp->run().bed().sim().events_fired();
    digest = fold_word(digest, result_digest(res.cells.back()));
  }
  res.digest = fold_word(digest, res.backbone_messages);
  return res;
}

MultiCellResult run_multicell(const MultiCellConfig& cfg, unsigned threads) {
  MultiCellTestbed bed{cfg};
  return bed.run(threads);
}

}  // namespace pp::exp
