// Integration tests for the transparent proxy on a miniature testbed:
// real wired LAN, AP, wireless medium, and energy-aware clients.
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <utility>

#include "exp/testbed.hpp"
#include "proxy/scheduler.hpp"
#include "transport/tcp.hpp"
#include "transport/udp.hpp"

namespace pp::proxy {
namespace {

using sim::Time;

struct ProxyFixture : ::testing::Test {
  std::unique_ptr<exp::Testbed> make_bed(int clients,
                                         sim::Duration interval = Time::ms(100),
                                         ProxyMode mode = ProxyMode::Splice) {
    exp::TestbedParams tp;
    tp.num_clients = clients;
    tp.proxy.mode = mode;
    return std::make_unique<exp::Testbed>(
        tp, std::make_unique<FixedIntervalScheduler>(interval));
  }
};

TEST_F(ProxyFixture, CalibrationFitsMediumCostModel) {
  auto bed = make_bed(1);
  bed->start();
  const auto& est = bed->proxy().estimator();
  EXPECT_TRUE(est.fitted());
  // The fit must match the medium's actual airtime for a UDP packet.
  net::Packet p;
  p.payload = 1000;
  p.dst = bed->client_ip(0);
  EXPECT_NEAR(est.packet_cost(1000).to_seconds(),
              bed->medium().airtime_of(p).to_seconds(), 1e-9);
}

TEST_F(ProxyFixture, SchedulesBroadcastEveryInterval) {
  auto bed = make_bed(2, Time::ms(100));
  bed->start(Time::ms(500));
  bed->run_until(Time::sec(2));
  // (2000 - 500) / 100 + 1 = 16 schedules.
  EXPECT_EQ(bed->proxy().stats().schedules_sent, 16u);
  ASSERT_NE(bed->proxy().last_schedule(), nullptr);
  EXPECT_EQ(bed->proxy().last_schedule()->interval, Time::ms(100));
}

TEST_F(ProxyFixture, UdpDownlinkIsBufferedAndBurst) {
  auto bed = make_bed(1, Time::ms(100));
  net::Node& server = bed->add_server("srv");
  transport::UdpSocket sock{server, 7000};
  bed->start(Time::ms(100));
  // Send a datagram mid-interval; it must be held until the next burst.
  bed->sim().at(Time::ms(150), [&] {
    sock.send_to(bed->client_ip(0), 7100, 800);
  });
  bed->run_until(Time::ms(180));
  EXPECT_EQ(bed->proxy().buffered_bytes(bed->client_ip(0)), 800u);
  EXPECT_EQ(bed->client(0).traffic().bytes_received, 0u);
  bed->run_until(Time::ms(300));
  EXPECT_EQ(bed->proxy().buffered_bytes(bed->client_ip(0)), 0u);
  EXPECT_GE(bed->proxy().stats().udp_bytes_burst, 800u);
}

TEST_F(ProxyFixture, BurstEndsWithMarkedPacket) {
  auto bed = make_bed(1, Time::ms(100));
  net::Node& server = bed->add_server("srv");
  transport::UdpSocket sock{server, 7000};
  bed->start(Time::ms(100));
  bed->sim().at(Time::ms(150), [&] {
    for (int i = 0; i < 3; ++i) sock.send_to(bed->client_ip(0), 7100, 500);
  });
  int marks = 0, datagrams = 0;
  bed->medium().add_sniffer([&](const net::SnifferRecord& r) {
    if (r.pkt.proto == net::Protocol::Udp && !r.pkt.is_broadcast() &&
        r.pkt.dst_port == 7100) {
      ++datagrams;
      marks += r.pkt.marked;
    }
  });
  bed->run_until(Time::ms(400));
  EXPECT_EQ(datagrams, 3);
  EXPECT_EQ(marks, 1);  // only the burst's final packet carries the mark
}

TEST_F(ProxyFixture, PerClientQueueCapDropsExcess) {
  exp::TestbedParams tp;
  tp.num_clients = 1;
  tp.proxy.queue_limit_bytes = 2000;
  exp::Testbed bed{tp, std::make_unique<FixedIntervalScheduler>(Time::sec(10))};
  net::Node& server = bed.add_server("srv");
  transport::UdpSocket sock{server, 7000};
  bed.start(Time::sec(9));  // no bursts for a long while
  bed.sim().at(Time::ms(100), [&] {
    for (int i = 0; i < 10; ++i) sock.send_to(bed.client_ip(0), 7100, 500);
  });
  bed.run_until(Time::sec(1));
  EXPECT_GT(bed.proxy().stats().queue_drops, 0u);
  EXPECT_LE(bed.proxy().buffered_bytes(bed.client_ip(0)), 2000u);
}

TEST_F(ProxyFixture, QueueDropAccountingMatchesMonitoringStation) {
  // Every datagram the server sends is either dropped at the proxy's
  // per-client cap or eventually aired — the monitoring station hears the
  // latter, so sent == aired + queue_drops once the queue drains.
  exp::TestbedParams tp;
  tp.num_clients = 1;
  // TestbedParams' default air is lossless, so the count is exact.
  tp.proxy.queue_limit_bytes = 2000;
  tp.observe = true;  // the drop timeline is read below
  exp::Testbed bed{tp, std::make_unique<FixedIntervalScheduler>(Time::sec(1))};
  net::Node& server = bed.add_server("srv");
  transport::UdpSocket sock{server, 7000};
  bed.monitor();  // attach the sniffer before any frame airs
  bed.start(Time::ms(500));
  constexpr int kSent = 10;
  bed.sim().at(Time::ms(100), [&] {
    for (int i = 0; i < kSent; ++i) sock.send_to(bed.client_ip(0), 7100, 500);
  });
  bed.run_until(Time::sec(3));
  ASSERT_EQ(bed.proxy().buffered_bytes(bed.client_ip(0)), 0u);  // drained

  std::uint64_t aired = 0;
  for (const auto& r : bed.monitor().buffer()) {
    if (r.proto == net::Protocol::Udp && !r.is_broadcast() &&
        r.dst_port == 7100) {
      ++aired;
    }
  }
  const std::uint64_t drops = bed.proxy().stats().queue_drops;
  EXPECT_GT(drops, 0u);
  EXPECT_EQ(aired + drops, static_cast<std::uint64_t>(kSent));
  // 2000-byte cap on 500-byte datagrams: exactly 4 queued, 6 dropped.
  EXPECT_EQ(drops, 6u);

#if PP_OBS_ENABLED
  // The metrics registry and the drop timeline agree with ProxyStats.
  ASSERT_NE(bed.metrics(), nullptr);
  bed.publish_metrics();  // counters reach the registry at the end of a run
  const auto* ctr = bed.metrics()->find_counter("proxy.queue_drops");
  ASSERT_NE(ctr, nullptr);
  EXPECT_EQ(ctr->value(), drops);
  std::uint64_t drop_events = 0;
  for (const auto& e : bed.timeline()->events()) {
    if (e.kind == obs::EventKind::Drop &&
        e.subject == bed.client_ip(0).raw()) {
      ++drop_events;
    }
  }
  EXPECT_EQ(drop_events, drops);
#endif
}

TEST_F(ProxyFixture, TcpSpliceEstablishesAndTransfers) {
  auto bed = make_bed(1, Time::ms(100));
  net::Node& server = bed->add_server("srv");
  transport::TcpServer tcp_server{server, 8000};
  std::uint64_t served = 0;
  tcp_server.set_on_accept([&](transport::TcpConnection& c) {
    c.set_on_deliver([&c, &served](std::uint64_t n) {
      if (served == 0) c.send(50'000);
      served += n;
    });
  });
  bed->start(Time::ms(100));

  std::uint64_t client_got = 0;
  std::unique_ptr<transport::TcpConnection> conn;
  bed->sim().at(Time::ms(200), [&] {
    conn = transport::tcp_connect(bed->client(0).node(), server.ip(), 8000);
    conn->set_on_established([&] { conn->send(100); });
    conn->set_on_deliver([&](std::uint64_t n) { client_got += n; });
  });
  bed->run_until(Time::sec(5));
  EXPECT_EQ(bed->proxy().stats().splices_created, 1u);
  EXPECT_EQ(served, 100u);
  EXPECT_EQ(client_got, 50'000u);
}

TEST_F(ProxyFixture, SpliceMasqueradesAddresses) {
  auto bed = make_bed(1, Time::ms(100));
  net::Node& server = bed->add_server("srv");
  transport::TcpServer tcp_server{server, 8000};
  transport::TcpConnection* accepted = nullptr;
  tcp_server.set_on_accept([&](transport::TcpConnection& c) { accepted = &c; });
  bed->start(Time::ms(100));
  std::unique_ptr<transport::TcpConnection> conn;
  bed->sim().at(Time::ms(200), [&] {
    conn = transport::tcp_connect(bed->client(0).node(), server.ip(), 8000);
  });
  bed->run_until(Time::sec(2));
  ASSERT_NE(accepted, nullptr);
  // The server believes it talks to the client directly...
  EXPECT_EQ(accepted->remote().ip, bed->client_ip(0));
  // ...and the client believes it talks to the server directly.
  EXPECT_EQ(conn->remote().ip, server.ip());
  EXPECT_TRUE(conn->established());
}

TEST_F(ProxyFixture, SpliceClosesAndReaps) {
  auto bed = make_bed(1, Time::ms(100));
  net::Node& server = bed->add_server("srv");
  transport::TcpServer tcp_server{server, 8000};
  tcp_server.set_on_accept([&](transport::TcpConnection& c) {
    auto done = std::make_shared<bool>(false);
    c.set_on_deliver([&c, done](std::uint64_t) {
      if (*done) return;
      *done = true;
      c.send(10'000);
      c.close();
    });
  });
  bed->start(Time::ms(100));
  std::unique_ptr<transport::TcpConnection> conn;
  bed->sim().at(Time::ms(200), [&] {
    conn = transport::tcp_connect(bed->client(0).node(), server.ip(), 8000);
    conn->set_on_established([&] { conn->send(100); });
    conn->set_on_remote_fin([&] { conn->close(); });
  });
  bed->run_until(Time::sec(10));
  EXPECT_EQ(bed->proxy().stats().splices_created, 1u);
  EXPECT_EQ(bed->proxy().stats().splices_closed, 1u);
  EXPECT_EQ(bed->proxy().splice_count(), 0u);
  EXPECT_TRUE(conn->done());

  // A late server -> client segment for the reaped flow finds no splice.
  const std::uint64_t unmatched = bed->proxy().stats().unmatched_packets;
  net::Packet late;
  late.proto = net::Protocol::Tcp;
  late.src = server.ip();
  late.src_port = 8000;
  late.dst = conn->local().ip;
  late.dst_port = conn->local().port;
  late.tcp.ack_flag = true;
  bed->proxy().wired_sink().handle_packet(std::move(late));
  EXPECT_EQ(bed->proxy().stats().unmatched_packets, unmatched + 1);
}

TEST_F(ProxyFixture, ServerSideRttExcludesClientBuffering) {
  // The double connection keeps the wired sender's RTT small even though
  // client delivery waits for bursts — the core argument for splicing.
  auto bed = make_bed(1, Time::ms(500));
  net::Node& server = bed->add_server("srv");
  transport::TcpServer tcp_server{server, 8000};
  transport::TcpConnection* accepted = nullptr;
  tcp_server.set_on_accept([&](transport::TcpConnection& c) {
    accepted = &c;
    c.set_on_deliver([&c](std::uint64_t) {
      static bool sent = false;
      if (!sent) {
        sent = true;
        c.send(200'000);
      }
    });
  });
  bed->start(Time::ms(100));
  std::unique_ptr<transport::TcpConnection> conn;
  bed->sim().at(Time::ms(200), [&] {
    conn = transport::tcp_connect(bed->client(0).node(), server.ip(), 8000);
    conn->set_on_established([&] { conn->send(100); });
  });
  bed->run_until(Time::sec(20));
  ASSERT_NE(accepted, nullptr);
  // Wired RTT is sub-millisecond; burst intervals are 500 ms.  Without the
  // splice the server's srtt would be dominated by the burst delay.
  EXPECT_LT(accepted->srtt(), Time::ms(50));
}

TEST_F(ProxyFixture, UplinkUdpPassesThroughUnbuffered) {
  auto bed = make_bed(1, Time::ms(500));
  net::Node& server = bed->add_server("srv");
  transport::UdpSocket server_sock{server, 7000};
  sim::Time arrival;
  server_sock.set_receive_fn(
      [&](const net::Packet&) { arrival = bed->sim().now(); });
  bed->start(Time::ms(400));
  transport::UdpSocket client_sock{bed->client(0).node(), 7100};
  bed->sim().at(Time::ms(50), [&] {
    client_sock.send_to(server.ip(), 7000, 100);
  });
  bed->run_until(Time::ms(200));
  // Arrived within ~10 ms, long before any burst interval machinery.
  EXPECT_GT(arrival, Time::ms(50));
  EXPECT_LT(arrival, Time::ms(60));
}

TEST_F(ProxyFixture, PassthroughModeForwardsImmediately) {
  auto bed = make_bed(1, Time::ms(500), ProxyMode::Passthrough);
  net::Node& server = bed->add_server("srv");
  transport::UdpSocket sock{server, 7000};
  bed->start(Time::ms(400));
  bed->sim().at(Time::ms(50), [&] {
    sock.send_to(bed->client_ip(0), 7100, 800);
  });
  bed->run_until(Time::ms(100));
  // Naive-style delivery: no buffering at all.  (The client daemon is still
  // running, but at t=50ms it has not yet seen a schedule, so it is awake.)
  EXPECT_EQ(bed->client(0).traffic().bytes_received, 800u);
  EXPECT_EQ(bed->proxy().stats().queued_packets, 0u);
}

TEST_F(ProxyFixture, BufferedPassthroughShapesWithoutSplicing) {
  auto bed = make_bed(1, Time::ms(100), ProxyMode::BufferedPassthrough);
  net::Node& server = bed->add_server("srv");
  transport::UdpSocket sock{server, 7000};
  bed->start(Time::ms(100));
  bed->sim().at(Time::ms(150), [&] {
    sock.send_to(bed->client_ip(0), 7100, 900);
  });
  bed->run_until(Time::ms(180));
  EXPECT_EQ(bed->client(0).traffic().bytes_received, 0u);  // held
  bed->run_until(Time::ms(300));
  EXPECT_EQ(bed->proxy().stats().splices_created, 0u);
  EXPECT_GE(bed->client(0).traffic().bytes_received, 900u);
}

TEST_F(ProxyFixture, MultipleClientsGetDisjointSlots) {
  auto bed = make_bed(3, Time::ms(100));
  net::Node& server = bed->add_server("srv");
  transport::UdpSocket sock{server, 7000};
  bed->start(Time::ms(100));
  bed->sim().at(Time::ms(120), [&] {
    for (int c = 0; c < 3; ++c)
      for (int i = 0; i < 2; ++i) sock.send_to(bed->client_ip(c), 7100, 1000);
  });
  // Inspect the schedule for the interval that carries the data (SRP at
  // 200 ms) before the next, empty one replaces it.
  bed->run_until(Time::ms(280));
  const auto sched = *bed->proxy().last_schedule();
  // Each client appears once, slots non-overlapping.
  ASSERT_EQ(sched.entries.size(), 3u);
  for (std::size_t i = 1; i < 3; ++i) {
    EXPECT_GE(sched.entries[i].rp_offset,
              sched.entries[i - 1].rp_offset + sched.entries[i - 1].duration);
  }
  bed->run_until(Time::ms(400));
  for (int c = 0; c < 3; ++c)
    EXPECT_EQ(bed->client(c).traffic().bytes_received, 2000u);
}

TEST_F(ProxyFixture, StopHaltsScheduleLoop) {
  auto bed = make_bed(1, Time::ms(100));
  bed->start(Time::ms(100));
  bed->run_until(Time::ms(450));
  const auto sent = bed->proxy().stats().schedules_sent;
  bed->proxy().stop();
  bed->run_until(Time::sec(2));
  EXPECT_EQ(bed->proxy().stats().schedules_sent, sent);
}

TEST(TransparentProxyWiring, StartRequiresBurstTransmitter) {
  // Bursts leave only through the batched transmitter; there is no
  // per-packet fallback, so starting without one is a wiring error.
  sim::Simulator sim{1};
  TransparentProxy proxy{
      sim, std::make_unique<FixedIntervalScheduler>(Time::ms(100))};
  proxy.set_wired_tx([](net::Packet) {});
  proxy.set_wireless_tx([](net::Packet) {});
  EXPECT_THROW(proxy.start(Time::ms(100)), std::logic_error);
  proxy.set_wireless_burst_tx([](net::ChunkQueue) {});
  EXPECT_NO_THROW(proxy.start(Time::ms(100)));
}

}  // namespace
}  // namespace pp::proxy
