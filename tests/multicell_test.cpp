// Multi-cell engine tests: cells that run to the horizon alone must
// produce bit-identical replay digests regardless of worker count and hash
// salt, and the backbone must carry exactly the traffic its generator
// defines between cells.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "exp/multicell.hpp"
#include "exp/scenario.hpp"
#include "net/addr.hpp"
#include "obs/hooks.hpp"

namespace pp::exp {
namespace {

using sim::Time;

// Restores the process-wide hash salt on scope exit so tests compose.
struct ScopedHashSalt {
  explicit ScopedHashSalt(std::uint64_t salt) : prev_(net::hash_salt()) {
    net::set_hash_salt(salt);
  }
  ~ScopedHashSalt() { net::set_hash_salt(prev_); }

 private:
  std::uint64_t prev_;
};

// A small but non-trivial fleet: three cells of mixed video/web/idle
// clients, short horizon, cross-traffic on.
MultiCellConfig small_fleet() {
  MultiCellConfig mc;
  mc.num_cells = 3;
  mc.cell.roles = {1, kRoleWeb, kRoleIdle, kRoleIdle};
  mc.cell.policy = IntervalPolicy::Fixed500;
  mc.cell.seed = 42;
  mc.cell.duration_s = 6.0;
  mc.cell.web_pages = 3;
  mc.backbone_latency = Time::ms(20);
  mc.cross.period = Time::ms(150);
  mc.cross.bytes = 400;
  return mc;
}

TEST(MultiCell, BackboneCarriesTrafficBetweenCells) {
  const MultiCellConfig mc = small_fleet();
  MultiCellResult res = run_multicell(mc, /*threads=*/1);
  ASSERT_EQ(static_cast<int>(res.cells.size()), mc.num_cells);
  EXPECT_GT(res.backbone_messages, 0u);
  EXPECT_GT(res.events_total, 0u);
  // Idle clients run no application; any bytes they received arrived over
  // the backbone through the proxy's normal downlink path.
  std::uint64_t idle_bytes = 0;
  for (const ScenarioResult& cell : res.cells) {
    for (const ClientResult& c : cell.clients) {
      if (c.role == kRoleIdle) idle_bytes += c.bytes_received;
    }
  }
  EXPECT_GT(idle_bytes, 0u);
}

// The exact traffic the fleet delivers, pinned; none of it depends on
// observability.  The digests moved once, on purpose, when the replay
// digest became a fold of the cells' results; the traffic did not.
TEST(MultiCell, BackboneTrafficIsPinned) {
  struct Pin {
    int fanout;
    std::uint64_t messages, bytes, packets, digest;
  };
  for (const Pin& pin : {Pin{1, 101, 365941, 583, 0xbdb0a206b4ed177cULL},
                         Pin{5, 505, 334480, 767, 0x3771dfd5f9f6df93ULL}}) {
    MultiCellConfig mc = small_fleet();
    mc.cross.fanout = pin.fanout;
    const MultiCellResult res = run_multicell(mc, 1);
    std::uint64_t bytes = 0, packets = 0;
    for (const ScenarioResult& cell : res.cells) {
      for (const ClientResult& c : cell.clients) {
        bytes += c.bytes_received;
        packets += c.packets_received;
      }
    }
    EXPECT_EQ(res.backbone_messages, pin.messages) << "fanout " << pin.fanout;
    EXPECT_EQ(bytes, pin.bytes) << "fanout " << pin.fanout;
    EXPECT_EQ(packets, pin.packets) << "fanout " << pin.fanout;
    EXPECT_EQ(res.digest, pin.digest) << "fanout " << pin.fanout;
  }
}

TEST(MultiCell, DigestIndependentOfWorkerCount) {
  const MultiCellConfig mc = small_fleet();
  const std::uint64_t serial = run_multicell(mc, 1).digest;
  ASSERT_NE(serial, 0u);
  for (const unsigned threads : {2u, 4u, 8u}) {
    EXPECT_EQ(serial, run_multicell(mc, threads).digest)
        << "digest diverged at " << threads << " workers";
  }
}

TEST(MultiCell, DigestInvariantUnderHashSalt) {
  const MultiCellConfig mc = small_fleet();
  std::uint64_t a, b;
  {
    ScopedHashSalt s{1};
    a = run_multicell(mc, 2).digest;
  }
  {
    ScopedHashSalt s{0x9E3779B97F4A7C15ULL};
    b = run_multicell(mc, 2).digest;
  }
  EXPECT_EQ(a, b) << "hash-bucket iteration order leaked into behaviour";
}

TEST(MultiCell, SingleCellNoCrossTrafficMatchesPlainScenario) {
  // One cell with cross-traffic off is exactly run_scenario: same events,
  // same results — the multi-cell wrapper must not perturb anything.
  MultiCellConfig mc;
  mc.num_cells = 1;
  mc.cell.roles = {1, kRoleWeb};
  mc.cell.seed = 7;
  mc.cell.duration_s = 6.0;
  mc.cell.web_pages = 3;
  mc.cross.enabled = false;
  const MultiCellResult res = run_multicell(mc, 1);
  const ScenarioResult plain = run_scenario(mc.cell);
  ASSERT_EQ(res.cells.size(), 1u);
  EXPECT_EQ(res.backbone_messages, 0u);
  ASSERT_EQ(res.cells[0].clients.size(), plain.clients.size());
  for (std::size_t i = 0; i < plain.clients.size(); ++i) {
    EXPECT_EQ(res.cells[0].clients[i].packets_received,
              plain.clients[i].packets_received);
    EXPECT_EQ(res.cells[0].clients[i].bytes_received,
              plain.clients[i].bytes_received);
    EXPECT_DOUBLE_EQ(res.cells[0].clients[i].energy_mj,
                     plain.clients[i].energy_mj);
  }
}

TEST(MultiCell, RejectsNonPositiveCrossTrafficPeriod) {
  MultiCellConfig mc = small_fleet();
  mc.cross.period = Time::zero();
  EXPECT_THROW(MultiCellTestbed{mc}, std::invalid_argument);
}

TEST(MultiCell, SixteenBitClientAddressing) {
  EXPECT_EQ(testbed_client_ip(0).str(), "172.16.0.1");
  EXPECT_EQ(testbed_client_ip(254).str(), "172.16.0.255");
  EXPECT_EQ(testbed_client_ip(255).str(), "172.16.1.0");
  EXPECT_EQ(testbed_client_ip(6249).str(), "172.16.24.106");
  // Distinctness over a large prefix of the index space.
  EXPECT_NE(testbed_client_ip(255).raw(), testbed_client_ip(511).raw());
}

TEST(MultiCell, PerClientObsOffStillYieldsClientResults) {
  MultiCellConfig mc = small_fleet();
  mc.cell.per_client_obs = false;
  const MultiCellResult res = run_multicell(mc, 1);
  ASSERT_NE(res.digest, 0u);
  for (const ScenarioResult& cell : res.cells) {
    for (const ClientResult& c : cell.clients) {
      if (c.role == kRoleIdle) continue;
      EXPECT_GT(c.energy_mj, 0.0);
      EXPECT_GT(c.naive_mj, 0.0);
    }
  }
}

}  // namespace
}  // namespace pp::exp
