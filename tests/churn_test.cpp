// Client-churn lifecycle tests: proxy membership (register/deregister,
// mid-interval demand shrink), the association state machine's
// deterministic backoff, scenario-level churn windows and storms
// (conservation + digest stability), graceful set_away teardown, and the
// access point's association table.
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "check/check.hpp"
#include "client/association.hpp"
#include "client/psm_client.hpp"
#include "exp/builder.hpp"
#include "exp/digest.hpp"
#include "exp/scenario.hpp"
#include "exp/testbed.hpp"
#include "net/access_point.hpp"
#include "net/addr.hpp"
#include "proxy/scheduler.hpp"
#include "sim/simulator.hpp"
#include "transport/udp.hpp"

namespace pp {
namespace {

using sim::Time;

// -- Proxy membership --------------------------------------------------------------

struct ProxyChurnFixture : ::testing::Test {
  ProxyChurnFixture() {
    exp::TestbedParams tp;
    tp.num_clients = 2;
    bed = std::make_unique<exp::Testbed>(
        tp, std::make_unique<proxy::FixedIntervalScheduler>(Time::ms(500)));
    server = &bed->add_server("srv");
    sock = std::make_unique<transport::UdpSocket>(*server, 5000);
  }

  check::ScopedFailureHandler guard{check::throwing_handler};
  std::unique_ptr<exp::Testbed> bed;
  net::Node* server = nullptr;
  std::unique_ptr<transport::UdpSocket> sock;
};

TEST_F(ProxyChurnFixture, RegisterDeregisterRegisterLeavesNoStaleState) {
  const net::Ipv4Addr ip = bed->client(0).ip();
  bed->start(Time::ms(500));
  bed->sim().at(Time::ms(100), [&] {
    for (int i = 0; i < 3; ++i) sock->send_to(ip, 7000, 1200);
  });
  bed->run_until(Time::ms(300));  // queued at the proxy, first SRP is at 500
  ASSERT_TRUE(bed->proxy().client_active(ip));

  bed->proxy().deregister_client(ip);
  const proxy::ProxyStats& ps = bed->proxy().stats();
  EXPECT_FALSE(bed->proxy().client_active(ip));
  EXPECT_EQ(ps.leaves, 1u);
  EXPECT_EQ(ps.churn_dropped_packets, 3u);
  EXPECT_EQ(ps.churn_dropped_bytes, 3600u);
  EXPECT_NO_THROW(bed->proxy().audit());

  // Downlink for a departed client is dropped at the door, and the next
  // schedule carries no slot for it.
  bed->sim().at(Time::ms(350), [&] { sock->send_to(ip, 7000, 900); });
  bed->run_until(Time::ms(1100));
  EXPECT_GE(ps.queue_drops, 1u);
  ASSERT_NE(bed->proxy().last_schedule(), nullptr);
  for (const auto& e : bed->proxy().last_schedule()->entries)
    EXPECT_NE(e.client, ip);

  // Revival: a fresh register starts from a clean queue and traffic flows.
  bed->proxy().register_client(ip);
  EXPECT_TRUE(bed->proxy().client_active(ip));
  bed->sim().at(Time::ms(1150), [&] {
    for (int i = 0; i < 3; ++i) sock->send_to(ip, 7000, 1000);
  });
  bed->run_until(Time::ms(2400));
  EXPECT_GT(bed->client(0).traffic().packets_received, 0u);
  EXPECT_NO_THROW(bed->proxy().audit());
}

TEST_F(ProxyChurnFixture, MidIntervalShrinkSkipsDepartedSlot) {
  const net::Ipv4Addr ip = bed->client(0).ip();
  bed->start(Time::ms(500));
  bed->sim().at(Time::ms(100), [&] {
    for (int i = 0; i < 3; ++i) sock->send_to(ip, 7000, 1200);
  });
  // The SRP at 500 builds a slot for client 0 (lead pushes the burst to
  // ~504); departing in between must leave the slot unused, not revive
  // proxy state for a client that is gone.
  bed->run_until(Time::ms(502));
  bed->proxy().deregister_client(ip);
  bed->run_until(Time::ms(1000));
  const proxy::ProxyStats& ps = bed->proxy().stats();
  EXPECT_GE(ps.bursts_skipped, 1u);
  EXPECT_EQ(ps.churn_dropped_packets, 3u);
  EXPECT_EQ(bed->client(0).traffic().packets_received, 0u);
  EXPECT_NO_THROW(bed->proxy().audit());
}

// -- Association state machine -----------------------------------------------------

// Run one agent against a dead proxy (no acks) and record transmit times.
std::vector<sim::Time> join_send_times(std::uint64_t seed, net::Ipv4Addr ip,
                                       sim::Time horizon) {
  sim::Simulator sim{seed};
  std::vector<sim::Time> times;
  client::AssocParams ap;
  ap.enabled = true;
  ap.run_seed = seed;
  client::AssociationAgent agent{
      sim, ip, ap, [&](net::Packet) { times.push_back(sim.now()); }, [] {}};
  sim.at(Time::ms(10), [&] { agent.join(); });
  sim.run_until(horizon);
  return times;
}

TEST(AssocBackoff, DeterministicPerSeedAndDivergentPerClient) {
  const net::Ipv4Addr ip0 = exp::testbed_client_ip(0);
  const net::Ipv4Addr ip1 = exp::testbed_client_ip(1);
  const std::vector<sim::Time> a = join_send_times(42, ip0, Time::sec(5));
  const std::vector<sim::Time> b = join_send_times(42, ip0, Time::sec(5));
  // Unacked joins retransmit with exponential backoff: 120ms doubling to
  // the 2s cap gives several retries inside 5s.
  ASSERT_GE(a.size(), 4u);
  EXPECT_EQ(a, b);
  // The jitter stream is salted per client address, so two clients with
  // the same run seed never retry in lockstep.
  const std::vector<sim::Time> c = join_send_times(42, ip1, Time::sec(5));
  ASSERT_GE(c.size(), 2u);
  EXPECT_NE(a, c);
  // And the run seed itself moves the whole pattern.
  const std::vector<sim::Time> d = join_send_times(43, ip0, Time::sec(5));
  EXPECT_NE(a, d);
}

TEST(AssocBackoff, StatsSeparateFirstSendFromRetries) {
  sim::Simulator sim{7};
  client::AssocParams ap;
  ap.enabled = true;
  ap.run_seed = 7;
  int sends = 0;
  client::AssociationAgent agent{sim, exp::testbed_client_ip(0), ap,
                                 [&](net::Packet) { ++sends; }, [] {}};
  sim.at(Time::ms(10), [&] { agent.join(); });
  sim.run_until(Time::sec(5));
  EXPECT_EQ(agent.stats().joins_sent, 1u);
  EXPECT_GE(agent.stats().join_retries, 3u);
  EXPECT_EQ(static_cast<std::uint64_t>(sends),
            agent.stats().joins_sent + agent.stats().join_retries);
  EXPECT_EQ(agent.state(), client::AssociationAgent::State::Associating);
}

// -- End-to-end churn --------------------------------------------------------------

TEST(ChurnEndToEnd, WindowDrivesLeaveAndRejoinWithConservation) {
  check::ScopedFailureHandler guard{check::throwing_handler};
  exp::ScenarioBuilder b;
  b.video(2, 1).policy(exp::IntervalPolicy::Fixed500).duration_s(10.0);
  b.fault_spec().churn(exp::testbed_client_ip(0), Time::sec(3), Time::sec(2));
  const exp::ScenarioResult res = exp::run_scenario(b.build());  // audits inside
  EXPECT_EQ(res.fault_stats.windows_activated, 1u);
  EXPECT_EQ(res.fault_stats.windows_recovered, 1u);
  // One graceful departure, one re-join, and each edge forced an
  // immediate SRP renegotiation.
  EXPECT_GE(res.proxy_stats.leaves, 1u);
  EXPECT_GE(res.proxy_stats.joins, 1u);
  EXPECT_GE(res.proxy_stats.renegotiations, 2u);
  EXPECT_GE(res.clients[0].assoc_leaves, 1u);
  EXPECT_GE(res.clients[0].assoc_joins, 1u);
  // The bystander never handshakes; both keep receiving after recovery.
  EXPECT_EQ(res.clients[1].assoc_joins, 0u);
  EXPECT_GT(res.clients[0].packets_received, 0u);
  EXPECT_GT(res.clients[1].packets_received, 0u);
}

TEST(ChurnEndToEnd, StormDigestIsHashSaltInvariant) {
  exp::ScenarioBuilder b;
  b.video(8, 1).policy(exp::IntervalPolicy::Fixed500).seed(5).duration_s(
      12.0);
  b.fault_spec().churn_storm(Time::sec(1), Time::sec(10), 0.25);
  const exp::ScenarioConfig cfg = b.build();
  net::set_hash_salt(1);
  const std::uint64_t d1 = exp::run_digest(cfg);
  net::set_hash_salt(99991);
  const std::uint64_t d2 = exp::run_digest(cfg);
  net::set_hash_salt(0);
  EXPECT_NE(d1, 0u);
  EXPECT_EQ(d1, d2);
}

TEST(ChurnEndToEnd, SetAwayTearsDownAndRejoins) {
  check::ScopedFailureHandler guard{check::throwing_handler};
  exp::TestbedParams tp;
  tp.num_clients = 2;
  tp.client.assoc.enabled = true;
  tp.client.assoc.run_seed = tp.seed;
  exp::Testbed bed{tp,
                   std::make_unique<proxy::FixedIntervalScheduler>(
                       Time::ms(500))};
  net::Node& server = bed.add_server("srv");
  transport::UdpSocket sock{server, 5000};
  bed.start(Time::ms(500));
  // Steady downlink trickle to both clients across the whole run.
  for (int i = 0; i < 80; ++i) {
    bed.sim().at(Time::ms(100 + 100 * i), [&, i] {
      sock.send_to(bed.client(i % 2).ip(), 7000, 600);
    });
  }
  bed.sim().at(Time::sec(3), [&] { bed.client(0).set_away(true); });
  bed.sim().at(Time::sec(6), [&] { bed.client(0).set_away(false); });
  bed.run_until(Time::sec(9));
  bed.finalize_audit();

  const client::AssociationAgent* a = bed.client(0).assoc();
  ASSERT_NE(a, nullptr);
  EXPECT_GE(a->stats().leaves_sent, 1u);
  EXPECT_GE(a->stats().leave_acks, 1u);
  EXPECT_GE(a->stats().joins_sent, 1u);
  EXPECT_GE(a->stats().join_acks, 1u);
  EXPECT_TRUE(a->associated());
  EXPECT_GE(bed.proxy().stats().leaves, 1u);
  EXPECT_GE(bed.proxy().stats().joins, 1u);
  // Packets arriving while away are dropped or drained, never wedged; the
  // returned client receives again.
  EXPECT_GT(bed.client(0).traffic().packets_received, 0u);
  EXPECT_GT(bed.client(1).traffic().packets_received, 0u);
}

// -- Access-point association table ------------------------------------------------

TEST(ApChurn, DisassociateFlushesParkedPsmFrames) {
  check::ScopedFailureHandler guard{check::throwing_handler};
  exp::TestbedParams tp;
  tp.num_clients = 0;
  tp.proxy.mode = proxy::ProxyMode::Passthrough;
  exp::Testbed bed{tp,
                   std::make_unique<proxy::FixedIntervalScheduler>(
                       Time::ms(500))};
  bed.access_point().enable_psm(Time::ms(100));
  client::PsmClient station{bed.sim(), bed.medium(), bed.energy_ledger(),
                            exp::testbed_client_ip(0), "psm0"};
  bed.access_point().register_psm_station(station.ip());
  net::Node& server = bed.add_server("srv");
  transport::UdpSocket sock{server, 5000};
  bed.start(Time::ms(400));

  // Park a frame mid-beacon-interval, then yank the station.
  bed.sim().at(Time::ms(150), [&] { sock.send_to(station.ip(), 7100, 800); });
  bed.run_until(Time::ms(190));
  ASSERT_EQ(bed.access_point().psm_buffered_frames(), 1u);
  bed.access_point().disassociate(station.ip());
  EXPECT_EQ(bed.access_point().assoc_flushed_frames(), 1u);
  EXPECT_EQ(bed.access_point().psm_buffered_frames(), 0u);
  EXPECT_NO_THROW(bed.access_point().audit());

  // A returning registered station gets a fresh parked queue.
  bed.access_point().associate(station.ip());
  bed.sim().at(Time::ms(250), [&] { sock.send_to(station.ip(), 7100, 700); });
  bed.run_until(Time::ms(280));
  EXPECT_EQ(bed.access_point().psm_buffered_frames(), 1u);
  bed.run_until(Time::ms(400));  // released by the next TIM beacon
  EXPECT_EQ(bed.access_point().psm_buffered_frames(), 0u);
  EXPECT_EQ(station.traffic().packets_received, 1u);
  EXPECT_NO_THROW(bed.access_point().audit());
}

// -- Builder gates -----------------------------------------------------------------

TEST(ChurnBuilder, MeasuredGoodputComposesWithDemandDrivenPolicies) {
  // Static schedules ignore per-client slot costs, so the knob stays
  // rejected there.
  exp::ScenarioBuilder static_eq;
  static_eq.video(1, 1)
      .policy(exp::IntervalPolicy::StaticEqual100)
      .duration_s(4.0)
      .measured_goodput();
  EXPECT_THROW(static_eq.build(), std::invalid_argument);
  exp::ScenarioBuilder slotted;
  slotted.video(1, 1)
      .web(1)
      .policy(exp::IntervalPolicy::SlottedStatic500)
      .duration_s(4.0)
      .measured_goodput();
  EXPECT_THROW(slotted.build(), std::invalid_argument);

  // Every demand-driven policy now accepts it.
  for (const auto p :
       {exp::IntervalPolicy::Fixed100, exp::IntervalPolicy::Fixed500,
        exp::IntervalPolicy::Variable, exp::IntervalPolicy::LongestQueue500,
        exp::IntervalPolicy::Opportunistic500,
        exp::IntervalPolicy::Probabilistic500}) {
    exp::ScenarioBuilder b;
    b.video(1, 1).policy(p).duration_s(4.0).measured_goodput();
    EXPECT_NO_THROW(b.build()) << exp::policy_name(p);
  }

  check::ScopedFailureHandler guard{check::throwing_handler};
  exp::ScenarioBuilder ok;
  ok.video(2, 1)
      .policy(exp::IntervalPolicy::Opportunistic500)
      .duration_s(6.0)
      .measured_goodput();
  const exp::ScenarioResult res = exp::run_scenario(ok.build());
  EXPECT_GT(res.clients[0].packets_received, 0u);

  // A newly legal combination also runs end-to-end.
  exp::ScenarioBuilder lqf;
  lqf.video(2, 1)
      .policy(exp::IntervalPolicy::LongestQueue500)
      .duration_s(6.0)
      .measured_goodput();
  const exp::ScenarioResult res_lqf = exp::run_scenario(lqf.build());
  EXPECT_GT(res_lqf.clients[0].packets_received, 0u);
}

TEST(ChurnBuilder, StormAndWindowValidation) {
  {
    exp::ScenarioBuilder b;
    b.video(1, 1).duration_s(4.0);
    b.fault_spec().churn_storm(Time::sec(1), Time::sec(2), 1.5);
    EXPECT_THROW(b.build(), std::invalid_argument);  // flap_fraction > 1
  }
  {
    exp::ScenarioBuilder b;
    b.video(1, 1).duration_s(4.0);
    b.fault_spec().churn_storm(Time::sec(3), Time::sec(2), 0.25);
    EXPECT_THROW(b.build(), std::invalid_argument);  // runs past horizon
  }
  {
    exp::ScenarioBuilder b;
    b.video(1, 1).duration_s(4.0);
    // A churn window without a client address is rejected.
    b.fault_spec().churn(net::Ipv4Addr{}, Time::sec(1), Time::sec(1));
    EXPECT_THROW(b.build(), std::invalid_argument);
  }
}

}  // namespace
}  // namespace pp
