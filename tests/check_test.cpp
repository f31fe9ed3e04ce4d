// Fault-injection tests for the invariant checkers in src/check/.
//
// Each test installs a throwing failure handler (so a tripped PP_CHECK
// raises check::CheckError instead of aborting), then deliberately breaks
// one invariant and asserts that exactly the right checker fires.  No
// death tests: the handler mechanism keeps everything in-process.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "check/check.hpp"
#include "energy/wnic.hpp"
#include "exp/testbed.hpp"
#include "net/chunk.hpp"
#include "net/packet.hpp"
#include "proxy/scheduler.hpp"
#include "sim/simulator.hpp"
#include "transport/tcp.hpp"

namespace pp::check {
namespace {

using sim::Time;

struct CheckFixture : ::testing::Test {
  ScopedFailureHandler scoped{throwing_handler};
};

// -- PP_CHECK core ---------------------------------------------------------------

TEST_F(CheckFixture, PassingCheckIsSilent) {
  PP_CHECK(1 + 1 == 2, "test.core");
  PP_CHECK_AT(true, "test.core", Time::ms(5));
}

TEST_F(CheckFixture, FailingCheckThrowsWithContext) {
  try {
    PP_CHECK(1 == 2, "test.component");
    FAIL() << "PP_CHECK did not fire";
  } catch (const CheckError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("test.component"), std::string::npos) << what;
    EXPECT_NE(what.find("1 == 2"), std::string::npos) << what;
  }
}

TEST_F(CheckFixture, FailingCheckAtReportsSimTime) {
  try {
    PP_CHECK_AT(false, "test.timed", Time::ms(1500));
    FAIL() << "PP_CHECK_AT did not fire";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("t=1.5"), std::string::npos)
        << e.what();
  }
}

TEST(CheckHandlerTest, ScopedHandlerRestoresPrevious) {
  {
    ScopedFailureHandler outer{throwing_handler};
    { ScopedFailureHandler inner{nullptr}; }
    // outer's handler must be back in force.
    EXPECT_THROW(PP_CHECK(false, "test.scope"), CheckError);
  }
}

// -- Simulator invariants --------------------------------------------------------

TEST_F(CheckFixture, SchedulingIntoThePastTrips) {
  sim::Simulator sim{1};
  sim.at(Time::ms(10), [] {});
  sim.run();
  EXPECT_THROW(sim.at(Time::ms(5), [] {}), CheckError);
}

// -- Proxy schedule ---------------------------------------------------------------

// A policy that hands out a slot ending before it starts.
struct NegativeSlotScheduler : proxy::Scheduler {
  proxy::BuiltSchedule build(const std::vector<proxy::ClientDemand>& demands,
                             const proxy::BandwidthEstimator&) override {
    proxy::BuiltSchedule b;
    b.interval = Time::ms(500);
    for (const auto& d : demands)
      b.entries.push_back({d.ip, Time::ms(10), Time::ms(1) - Time::ms(2)});
    return b;
  }
};

TEST_F(CheckFixture, ScheduleEntryWithNegativeDurationTrips) {
  exp::TestbedParams tp;
  tp.num_clients = 1;
  exp::Testbed bed{tp, std::make_unique<NegativeSlotScheduler>()};
  bed.start(Time::ms(500));
  try {
    bed.run_until(Time::ms(600));
    FAIL() << "the first SRP did not trip";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("proxy.schedule.entry_duration"),
              std::string::npos)
        << e.what();
  }
}

// Client addresses wrap past kMaxTestbedClients, so the testbed refuses
// such a fleet before it builds anything.
TEST_F(CheckFixture, TestbedClientCountOutOfRangeTrips) {
  for (const int n : {-1, exp::kMaxTestbedClients + 1}) {
    exp::TestbedParams tp;
    tp.num_clients = n;
    try {
      exp::Testbed bed{
          tp, std::make_unique<proxy::FixedIntervalScheduler>(Time::ms(500))};
      FAIL() << n << " clients built";
    } catch (const CheckError& e) {
      EXPECT_NE(std::string(e.what()).find("exp.testbed.client_count"),
                std::string::npos)
          << e.what();
    }
  }
}

// -- Energy accounting -----------------------------------------------------------

TEST_F(CheckFixture, EnergyAuditPassesOnConsistentTimeline) {
  energy::EnergyLedger ledger{energy::WnicPowerModel::wavelan()};
  energy::EnergyAccountant acc{ledger, Time::ms(100)};
  acc.set_mode(Time::ms(200), energy::WnicMode::Sleep);
  acc.set_mode(Time::ms(300), energy::WnicMode::Receive);
  acc.finish(Time::ms(450));
  acc.audit(Time::ms(450), "test.energy");
  EXPECT_EQ(acc.time_in(energy::WnicMode::Sleep), Time::ms(100));
}

TEST_F(CheckFixture, EnergyAuditCatchesUnaccountedTime) {
  energy::EnergyLedger ledger{energy::WnicPowerModel::wavelan()};
  energy::EnergyAccountant acc{ledger, Time::ms(100)};
  acc.set_mode(Time::ms(200), energy::WnicMode::Sleep);
  acc.finish(Time::ms(300));
  // Auditing against a *different* end time than the one settled must
  // expose the hole in the accounting.
  EXPECT_THROW(acc.audit(Time::ms(250), "test.energy"), CheckError);
}

TEST_F(CheckFixture, EnergySettleRejectsTimeRegression) {
  energy::EnergyLedger ledger{energy::WnicPowerModel::wavelan()};
  energy::EnergyAccountant acc{ledger, Time::ms(100)};
  acc.set_mode(Time::ms(200), energy::WnicMode::Sleep);
  EXPECT_THROW(acc.set_mode(Time::ms(150), energy::WnicMode::Idle),
               CheckError);
}

// -- TCP sequence continuity -----------------------------------------------------

TEST_F(CheckFixture, TcpConsumeBeyondDeliveredTrips) {
  sim::Simulator sim{1};
  transport::TcpOptions opts;
  opts.manual_consume = true;
  transport::TcpConnection conn{
      sim,           [](net::Packet) {},
      {net::Ipv4Addr::octets(10, 0, 0, 1), 80},
      {net::Ipv4Addr::octets(10, 0, 0, 2), 999},
      opts,          /*passive=*/true};
  EXPECT_THROW(conn.consume(1), CheckError);
}

TEST_F(CheckFixture, TcpConsumeWithoutManualModeTrips) {
  sim::Simulator sim{1};
  transport::TcpConnection conn{
      sim,  [](net::Packet) {},
      {net::Ipv4Addr::octets(10, 0, 0, 1), 80},
      {net::Ipv4Addr::octets(10, 0, 0, 2), 999},
      {},   /*passive=*/true};
  EXPECT_THROW(conn.consume(0), CheckError);
}

TEST_F(CheckFixture, TcpDoubleConnectTrips) {
  sim::Simulator sim{1};
  transport::TcpConnection conn{
      sim, [](net::Packet) {},
      {net::Ipv4Addr::octets(10, 0, 0, 1), 80},
      {net::Ipv4Addr::octets(10, 0, 0, 2), 999},
      {},  /*passive=*/false};
  conn.connect();
  EXPECT_THROW(conn.connect(), CheckError);
}

// -- Chunk queues ----------------------------------------------------------------

TEST_F(CheckFixture, ChunkQueueMisuseTrips) {
  auto pool = std::make_shared<net::ChunkPool>();
  net::ChunkQueue q{pool};
  EXPECT_THROW((void)q.pop_packet(), CheckError);  // net.chunk.pop_empty
  EXPECT_THROW(q.mark_tail(), CheckError);         // net.chunk.mark_empty

  net::ChunkQueue no_pool;
  EXPECT_THROW(no_pool.push(net::Packet{}), CheckError);

  q.push(net::Packet{});
  net::ChunkQueue other{std::make_shared<net::ChunkPool>()};
  EXPECT_THROW(q.pop_front_to(other), CheckError);  // net.chunk.pool_mismatch

  // split_front bounds: 0 and >= length are both out of range.
  net::Packet pkt;
  pkt.payload = 100;
  net::ChunkQueue s{pool};
  s.push(std::move(pkt));
  EXPECT_THROW(s.split_front(0), CheckError);    // net.chunk.split_range
  EXPECT_THROW(s.split_front(100), CheckError);  // net.chunk.split_range
}

// Chunk-granularity conservation: however a datagram is split and handed
// between queues, audit() holds at every step and the view lengths always
// re-assemble to the original payload.
TEST_F(CheckFixture, ChunkConservationAcrossSplitsAndHandoffs) {
  auto pool = std::make_shared<net::ChunkPool>();
  net::ChunkQueue q{pool};
  net::Packet pkt;
  pkt.payload = 900;
  q.push(std::move(pkt));
  q.split_front(300);  // 300 | 600
  q.audit();
  net::ChunkQueue burst{pool};
  q.pop_front_to(burst);
  q.split_front(200);  // queue: 200 | 400, burst: 300
  q.audit();
  burst.audit();
  q.move_all_to(burst);
  EXPECT_TRUE(q.empty());
  q.audit();
  burst.audit();
  EXPECT_EQ(burst.packets(), 3u);
  EXPECT_EQ(burst.bytes(), 900u);  // nothing lost, nothing invented
  std::uint64_t reassembled = 0;
  burst.for_each([&reassembled](const net::Chunk& c) {
    reassembled += c.length;
  });
  EXPECT_EQ(reassembled, 900u);
}

}  // namespace
}  // namespace pp::check
