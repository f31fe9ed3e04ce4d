// Tests for the Bounded Slowdown baseline client.
#include <gtest/gtest.h>

#include <memory>

#include "client/bsd_client.hpp"
#include "exp/testbed.hpp"
#include "proxy/scheduler.hpp"
#include "transport/udp.hpp"

namespace pp::client {
namespace {

using sim::Time;

struct BsdFixture : ::testing::Test {
  BsdFixture() {
    exp::TestbedParams tp;
    tp.num_clients = 0;
    tp.proxy.mode = proxy::ProxyMode::Passthrough;
    bed = std::make_unique<exp::Testbed>(
        tp,
        std::make_unique<proxy::FixedIntervalScheduler>(Time::ms(500)));
    bed->access_point().enable_psm(Time::ms(100));
    station = std::make_unique<BsdClient>(bed->sim(), bed->medium(),
                                          bed->energy_ledger(),
                                          exp::testbed_client_ip(0), "bsd0");
    bed->access_point().register_psm_station(station->ip());
    server = &bed->add_server("srv");
    sock = std::make_unique<transport::UdpSocket>(*server, 7000);
  }

  std::unique_ptr<exp::Testbed> bed;
  std::unique_ptr<BsdClient> station;
  net::Node* server = nullptr;
  std::unique_ptr<transport::UdpSocket> sock;
};

TEST_F(BsdFixture, SkipLadderGrowsWhenIdle) {
  bed->start(Time::ms(400));
  bed->run_until(Time::sec(3));
  EXPECT_EQ(station->current_beacon_skip(), 8);  // capped maximum
}

TEST_F(BsdFixture, IdleClientSavesMoreThanPerBeaconPsm) {
  bed->start(Time::ms(400));
  bed->run_until(Time::sec(20));
  // Skipping up to 8 beacons: far fewer wakes than per-beacon PSM.
  EXPECT_GT(station->energy_saved_fraction(Time::sec(20)), 0.78);
}

TEST_F(BsdFixture, TrafficResetsTheLadder) {
  bed->start(Time::ms(400));
  bed->run_until(Time::sec(3));
  ASSERT_EQ(station->current_beacon_skip(), 8);
  // Parked traffic is delivered at a beacon the client attends; receiving
  // it resets the skip to 1.
  bed->sim().at(Time::ms(3050), [&] {
    sock->send_to(station->ip(), 7100, 600);
  });
  bed->run_until(Time::sec(5));
  EXPECT_GE(station->traffic().packets_received, 1u);
  // After the reset the ladder regrows from 1, so at some point shortly
  // after delivery it was small.
  EXPECT_GT(station->traffic().bytes_received, 0u);
}

TEST_F(BsdFixture, AwakeWindowCatchesImmediateResponses) {
  bed->start(Time::ms(400));
  transport::UdpSocket server_rx{*server, 7001};
  transport::UdpSocket client_sock{station->node(), 7100};
  // A request-like TCP uplink opens the awake window; verify by checking
  // the client stays listening right after sending.
  bed->sim().at(Time::ms(2500), [&] {
    net::Packet syn;
    syn.src = station->ip();
    syn.dst = server->ip();
    syn.src_port = 40000;
    syn.dst_port = 80;
    syn.proto = net::Protocol::Tcp;
    syn.tcp.syn = true;
    station->node().send(std::move(syn));
  });
  bed->run_until(Time::ms(2700));
  EXPECT_TRUE(station->listening());  // inside the 300 ms awake window
  bed->run_until(Time::ms(3400));
  EXPECT_FALSE(station->listening());  // window over, dozing again
}

TEST_F(BsdFixture, ParkedFramesWaitForAnAttendedBeacon) {
  bed->start(Time::ms(400));
  bed->run_until(Time::sec(3));  // ladder at max: attends every 8th beacon
  bed->sim().at(Time::ms(3050), [&] {
    sock->send_to(station->ip(), 7100, 500);
  });
  bed->run_until(Time::ms(3150));
  // The 3.1 s beacon may pass while the client dozes; the frame stays
  // parked rather than being transmitted into the void.
  EXPECT_EQ(station->traffic().packets_missed, 0u);
  bed->run_until(Time::sec(5));
  EXPECT_EQ(station->traffic().packets_received, 1u);
  EXPECT_EQ(station->loss_fraction(), 0.0);
}

}  // namespace
}  // namespace pp::client
