// Tests for the 802.11 power-save-mode baseline: AP beacons + TIM parking
// and the dozing PSM client.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "client/psm_client.hpp"
#include "exp/testbed.hpp"
#include "net/psm.hpp"
#include "proxy/scheduler.hpp"
#include "transport/udp.hpp"

namespace pp::client {
namespace {

using sim::Time;

struct PsmFixture : ::testing::Test {
  PsmFixture() {
    exp::TestbedParams tp;
    tp.num_clients = 0;
    tp.proxy.mode = proxy::ProxyMode::Passthrough;
    bed = std::make_unique<exp::Testbed>(
        tp,
        std::make_unique<proxy::FixedIntervalScheduler>(Time::ms(500)));
    bed->access_point().enable_psm(Time::ms(100));
    station = std::make_unique<PsmClient>(bed->sim(), bed->medium(),
                                          bed->energy_ledger(),
                                          exp::testbed_client_ip(0), "psm0");
    bed->access_point().register_psm_station(station->ip());
    server = &bed->add_server("srv");
    sock = std::make_unique<transport::UdpSocket>(*server, 7000);
  }

  std::unique_ptr<exp::Testbed> bed;
  std::unique_ptr<PsmClient> station;
  net::Node* server = nullptr;
  std::unique_ptr<transport::UdpSocket> sock;
};

TEST_F(PsmFixture, BeaconsBroadcastEveryInterval) {
  bed->start(Time::ms(400));
  bed->run_until(Time::sec(2));
  EXPECT_GE(bed->access_point().beacons_sent(), 19u);
  EXPECT_LE(bed->access_point().beacons_sent(), 21u);
}

TEST_F(PsmFixture, ClientDozesBetweenEmptyBeacons) {
  bed->start(Time::ms(400));
  bed->run_until(Time::sec(10));
  const double saved = station->energy_saved_fraction(Time::sec(10));
  EXPECT_GT(saved, 0.6);  // mostly asleep
  EXPECT_GT(station->beacons_received(), 90u);
}

TEST_F(PsmFixture, FramesParkedUntilBeacon) {
  bed->start(Time::ms(400));
  // Send mid-beacon-interval: the frame must wait at the AP.
  bed->sim().at(Time::ms(150), [&] {
    sock->send_to(station->ip(), 7100, 800);
  });
  bed->run_until(Time::ms(190));
  EXPECT_EQ(bed->access_point().psm_buffered_frames(), 1u);
  EXPECT_EQ(station->traffic().packets_received, 0u);
  bed->run_until(Time::ms(260));  // beacon at ~200 releases it
  EXPECT_EQ(bed->access_point().psm_buffered_frames(), 0u);
  EXPECT_EQ(station->traffic().packets_received, 1u);
  EXPECT_EQ(station->traffic().bytes_received, 800u);
}

TEST_F(PsmFixture, FinalFrameCarriesMoreDataClearedMark) {
  bed->start(Time::ms(400));
  bed->sim().at(Time::ms(150), [&] {
    for (int i = 0; i < 3; ++i) sock->send_to(station->ip(), 7100, 300);
  });
  int marks = 0, frames = 0;
  bed->medium().add_sniffer([&](const net::SnifferRecord& r) {
    if (r.pkt.dst == station->ip() && r.pkt.proto == net::Protocol::Udp) {
      ++frames;
      marks += r.pkt.marked;
    }
  });
  bed->run_until(Time::ms(400));
  EXPECT_EQ(frames, 3);
  EXPECT_EQ(marks, 1);
}

TEST_F(PsmFixture, ClientSleepsAfterDrainingItsQueue) {
  bed->start(Time::ms(400));
  bed->sim().at(Time::ms(150), [&] {
    sock->send_to(station->ip(), 7100, 500);
  });
  // Shortly after the ~200 ms beacon + release, the client is dozing.
  bed->run_until(Time::ms(280));
  EXPECT_FALSE(station->listening());
  // And it wakes again before the next beacon's arrival (the beacon airs
  // at ~300 ms and reaches the client at ~302 ms).
  bed->run_until(Time::ms(301));
  EXPECT_TRUE(station->listening());
}

TEST_F(PsmFixture, NoLossForParkedTraffic) {
  bed->start(Time::ms(400));
  for (int t = 150; t < 3000; t += 70) {
    bed->sim().at(Time::ms(t), [&] {
      sock->send_to(station->ip(), 7100, 400);
    });
  }
  bed->run_until(Time::sec(4));
  EXPECT_EQ(station->loss_fraction(), 0.0);
  EXPECT_GT(station->traffic().packets_received, 30u);
}

TEST_F(PsmFixture, UplinkWakesTheRadio) {
  bed->start(Time::ms(400));
  transport::UdpSocket client_sock{station->node(), 7100};
  transport::UdpSocket server_rx{*server, 7001};
  int got = 0;
  server_rx.set_receive_fn([&](const net::Packet&) { ++got; });
  bed->sim().at(Time::ms(250), [&] {
    client_sock.send_to(server->ip(), 7001, 200);
  });
  bed->run_until(Time::ms(400));
  EXPECT_EQ(got, 1);
}

TEST_F(PsmFixture, PsmSavesLessThanLongProxyIntervals) {
  // The qualitative claim of Section 2: for continuous media, PSM behaves
  // like a 100 ms schedule at best.  Here: steady traffic through PSM.
  bed->start(Time::ms(400));
  for (int t = 150; t < 20000; t += 50) {
    bed->sim().at(Time::ms(t), [&] {
      sock->send_to(station->ip(), 7100, 500);
    });
  }
  bed->run_until(Time::sec(21));
  const double psm_saved = station->energy_saved_fraction(Time::sec(21));
  EXPECT_GT(psm_saved, 0.3);
  EXPECT_LT(psm_saved, 0.85);
}

// What one PSM cell's first indicating beacon and its release look like.
struct ParkOrder {
  std::vector<net::Ipv4Addr> tim;       // first non-empty TIM
  std::vector<net::Ipv4Addr> released;  // parked frames, in air order
};

// Three stations registered, and sent one frame each, in descending
// address order.
ParkOrder run_three_station_cell(std::uint64_t salt) {
  const std::uint64_t prev_salt = net::hash_salt();
  net::set_hash_salt(salt);
  exp::TestbedParams tp;
  tp.num_clients = 0;
  tp.proxy.mode = proxy::ProxyMode::Passthrough;
  exp::Testbed bed{tp, std::make_unique<proxy::FixedIntervalScheduler>(
                           Time::ms(500))};
  bed.access_point().enable_psm(Time::ms(100));
  std::vector<std::unique_ptr<PsmClient>> stations;
  for (int i = 2; i >= 0; --i) {
    stations.push_back(std::make_unique<PsmClient>(
        bed.sim(), bed.medium(), bed.energy_ledger(),
        exp::testbed_client_ip(i), "psm" + std::to_string(i)));
    bed.access_point().register_psm_station(stations.back()->ip());
  }
  transport::UdpSocket sock{bed.add_server("srv"), 7000};
  ParkOrder out;
  bed.medium().add_sniffer([&](const net::SnifferRecord& r) {
    if (r.pkt.dst_port == net::kBeaconPort && out.tim.empty()) {
      out.tim = std::static_pointer_cast<const net::BeaconMessage>(r.pkt.data)
                    ->tim;
    } else if (r.pkt.dst_port == 7100) {
      out.released.push_back(r.pkt.dst);
    }
  });
  bed.start(Time::ms(400));
  bed.sim().at(Time::ms(150), [&] {
    for (const auto& st : stations) sock.send_to(st->ip(), 7100, 300);
  });
  bed.run_until(Time::ms(300));
  net::set_hash_salt(prev_salt);
  return out;
}

TEST(PsmOrder, TimAndReleaseFollowAddressOrderUnderAnySalt) {
  const std::vector<net::Ipv4Addr> ascending{exp::testbed_client_ip(0),
                                             exp::testbed_client_ip(1),
                                             exp::testbed_client_ip(2)};
  const ParkOrder a = run_three_station_cell(1);
  EXPECT_EQ(a.tim, ascending);
  EXPECT_EQ(a.released, ascending);
  const ParkOrder b = run_three_station_cell(99991);
  EXPECT_EQ(b.tim, a.tim);
  EXPECT_EQ(b.released, a.released);
}

}  // namespace
}  // namespace pp::client
