// Integration tests for the live energy-aware client: WNIC accounting,
// naive baseline, schedule-driven sleep, and loss bookkeeping.
#include <gtest/gtest.h>

#include <memory>

#include "exp/testbed.hpp"
#include "proxy/scheduler.hpp"
#include "transport/udp.hpp"

namespace pp::client {
namespace {

using sim::Time;

// Lossless air: TestbedParams installs no loss model by default.
std::unique_ptr<exp::Testbed> make_bed(int clients, ClientParams cp = {}) {
  exp::TestbedParams tp;
  tp.num_clients = clients;
  tp.client = cp;
  return std::make_unique<exp::Testbed>(
      tp, std::make_unique<proxy::FixedIntervalScheduler>(Time::ms(100)));
}

TEST(EnergyAwareClient, IdleClientSleepsBetweenSchedules) {
  auto bed = make_bed(1);
  bed->start(Time::ms(100));
  bed->run_until(Time::sec(10));
  const auto& acc = bed->client(0).accountant();
  // No traffic: the client should spend the vast majority asleep.
  const double saved = bed->client(0).energy_saved_fraction(Time::sec(10));
  EXPECT_GT(saved, 0.75);
  EXPECT_GT(acc.wake_transitions(), 50u);  // woke for ~99 schedules
}

TEST(EnergyAwareClient, NaiveClientNeverSleeps) {
  ClientParams cp;
  cp.naive = true;
  auto bed = make_bed(1, cp);
  bed->start(Time::ms(100));
  bed->run_until(Time::sec(5));
  EXPECT_EQ(bed->client(0).accountant().wake_transitions(), 0u);
  EXPECT_NEAR(bed->client(0).energy_saved_fraction(Time::sec(5)), 0.0, 0.02);
  EXPECT_TRUE(bed->client(0).listening());
}

TEST(EnergyAwareClient, EnergyNeverExceedsNaive) {
  auto bed = make_bed(2);
  net::Node& server = bed->add_server("srv");
  transport::UdpSocket sock{server, 7000};
  bed->start(Time::ms(100));
  for (int t = 150; t < 5000; t += 120) {
    bed->sim().at(Time::ms(t), [&, t] {
      sock.send_to(bed->client_ip(t % 2), 7100, 700);
    });
  }
  bed->run_until(Time::sec(6));
  for (int i = 0; i < 2; ++i) {
    EXPECT_LT(bed->client(i).energy_mj(Time::sec(6)),
              bed->client(i).naive_energy_mj(Time::sec(6)));
  }
}

TEST(EnergyAwareClient, ReceiveAirtimeAccountedOnDelivery) {
  auto bed = make_bed(1);
  net::Node& server = bed->add_server("srv");
  transport::UdpSocket sock{server, 7000};
  bed->start(Time::ms(100));
  bed->sim().at(Time::ms(150), [&] {
    sock.send_to(bed->client_ip(0), 7100, 1400);
  });
  bed->run_until(Time::ms(400));
  const auto& tr = bed->client(0).traffic();
  EXPECT_EQ(tr.packets_received, 1u);
  EXPECT_GT(tr.receive_airtime, Time::ms(2));  // ~2.8 ms at 4 Mb/s
}

TEST(EnergyAwareClient, TransmitAirtimeAccountedOnUplink) {
  auto bed = make_bed(1);
  net::Node& server = bed->add_server("srv");
  transport::UdpSocket server_sock{server, 7000};
  bed->start(Time::ms(100));
  transport::UdpSocket client_sock{bed->client(0).node(), 7100};
  bed->sim().at(Time::ms(150), [&] {
    client_sock.send_to(server.ip(), 7000, 500);
  });
  bed->run_until(Time::ms(300));
  EXPECT_GT(bed->client(0).traffic().transmit_airtime, Time::ms(1));
}

TEST(EnergyAwareClient, MissedPacketsCountedWhileAsleep) {
  // Disable the schedule system entirely: proxy in passthrough forwards
  // immediately, client daemon sleeps after empty schedules, so a
  // mid-interval datagram finds the radio off.
  exp::TestbedParams tp;
  tp.num_clients = 1;
  tp.proxy.mode = proxy::ProxyMode::Passthrough;
  exp::Testbed bed{tp, std::make_unique<proxy::FixedIntervalScheduler>(
                           Time::ms(500))};
  net::Node& server = bed.add_server("srv");
  transport::UdpSocket sock{server, 7000};
  bed.start(Time::ms(100));
  bed.sim().at(Time::ms(850), [&] {  // mid-interval, client asleep
    sock.send_to(bed.client_ip(0), 7100, 900);
  });
  bed.run_until(Time::sec(2));
  EXPECT_EQ(bed.client(0).traffic().packets_missed, 1u);
  EXPECT_GT(bed.client(0).loss_fraction(), 0.99);
}

TEST(EnergyAwareClient, BroadcastMissesTrackedSeparately) {
  auto bed = make_bed(1);
  bed->start(Time::ms(100));
  bed->run_until(Time::sec(5));
  const auto& tr = bed->client(0).traffic();
  // Schedules the client slept through (e.g. during min-sleep windows)
  // are broadcast misses, not data loss.
  EXPECT_EQ(tr.packets_missed, 0u);
  EXPECT_EQ(bed->client(0).loss_fraction(), 0.0);
}

TEST(EnergyAwareClient, SavingsImproveWithLongerIntervals) {
  double saved[2];
  int k = 0;
  for (auto interval : {Time::ms(100), Time::ms(500)}) {
    exp::TestbedParams tp;
    tp.num_clients = 1;
    exp::Testbed bed{
        tp, std::make_unique<proxy::FixedIntervalScheduler>(interval)};
    bed.start(Time::ms(100));
    bed.run_until(Time::sec(20));
    saved[k++] = bed.client(0).energy_saved_fraction(Time::sec(20));
  }
  EXPECT_GT(saved[1], saved[0]);
}

TEST(EnergyAwareClient, WakePenaltyScalesWithTransitions) {
  auto bed100 = make_bed(1);
  bed100->start(Time::ms(100));
  bed100->run_until(Time::sec(20));
  const auto wakes = bed100->client(0).accountant().wake_transitions();
  // ~199 schedule wakes in 20 s at 100 ms intervals.
  EXPECT_GT(wakes, 150u);
  EXPECT_LT(wakes, 220u);
  EXPECT_NEAR(bed100->client(0).accountant().wake_penalty_mj(),
              static_cast<double>(wakes) * 1319.0 * 0.002, 1e-6);
}

TEST(EnergyAwareClient, LossFractionZeroWithoutTraffic) {
  auto bed = make_bed(1);
  bed->start(Time::ms(100));
  bed->run_until(Time::sec(1));
  EXPECT_EQ(bed->client(0).loss_fraction(), 0.0);
}

}  // namespace
}  // namespace pp::client
