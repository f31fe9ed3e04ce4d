#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "channel/model.hpp"
#include "check/check.hpp"
#include "net/access_point.hpp"
#include "net/addr.hpp"
#include "net/chunk.hpp"
#include "net/link.hpp"
#include "net/node.hpp"
#include "net/packet.hpp"
#include "net/psm.hpp"
#include "net/wireless.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"

namespace pp::net {
namespace {

using sim::Time;

// Test packets are told apart by a media sequence number, stamped in
// creation order.
std::uint32_t g_next_seq = 1;
Packet numbered() {
  Packet p;
  p.set_media({g_next_seq++, 0});
  return p;
}
std::uint32_t seq_of(const Packet& p) { return p.media.seq; }

TEST(Addr, Formatting) {
  EXPECT_EQ(Ipv4Addr::octets(192, 168, 1, 42).str(), "192.168.1.42");
  EXPECT_EQ(Ipv4Addr::broadcast().str(), "255.255.255.255");
  EXPECT_TRUE(Ipv4Addr::broadcast().is_broadcast());
  EXPECT_FALSE(Ipv4Addr::octets(10, 0, 0, 1).is_broadcast());
}

TEST(Addr, FlowKeyReversal) {
  const FlowKey k{Ipv4Addr::octets(1, 1, 1, 1), 100,
                  Ipv4Addr::octets(2, 2, 2, 2), 200, Protocol::Tcp};
  const FlowKey r = k.reversed();
  EXPECT_EQ(r.src, k.dst);
  EXPECT_EQ(r.src_port, k.dst_port);
  EXPECT_EQ(r.dst, k.src);
  EXPECT_EQ(r.reversed(), k);
}

TEST(Addr, FlowKeyHashDistinguishesPorts) {
  const FlowKey a{Ipv4Addr{1}, 10, Ipv4Addr{2}, 20, Protocol::Udp};
  FlowKey b = a;
  b.src_port = 11;
  EXPECT_NE(FlowKeyHash{}(a), FlowKeyHash{}(b));
}

// App headers ride by value in copies; a shared message is read back
// only under its own tag.
TEST(Packet, AppHeaderRidesInCopies) {
  Packet p;
  EXPECT_EQ(p.app, AppKind::None);
  p.set_report({0.25, 17});
  const Packet copy = p;
  EXPECT_EQ(copy.app, AppKind::Report);
  EXPECT_EQ(copy.report.loss_fraction, 0.25);
  EXPECT_EQ(copy.report.highest_seq, 17u);
  EXPECT_EQ(copy.data, nullptr);

  Packet beacon;
  auto msg = std::make_shared<BeaconMessage>();
  msg->seq_no = 3;
  beacon.set_message<BeaconMessage>(msg);
  ASSERT_NE(beacon.message<BeaconMessage>(), nullptr);
  EXPECT_EQ(beacon.message<BeaconMessage>()->seq_no, 3u);
  EXPECT_EQ(beacon.share<BeaconMessage>(), msg);
  EXPECT_EQ(copy.message<BeaconMessage>(), nullptr);
}

TEST(Packet, WireSizeIncludesHeaders) {
  Packet p;
  p.payload = 1000;
  p.proto = Protocol::Udp;
  EXPECT_EQ(p.wire_size(), 1028u);
  p.proto = Protocol::Tcp;
  EXPECT_EQ(p.wire_size(), 1040u);
}

class CollectSink : public PacketSink {
 public:
  void handle_packet(Packet pkt) override {
    times.push_back(sim_ ? sim_->now() : sim::Time::zero());
    pkts.push_back(std::move(pkt));
  }
  sim::Simulator* sim_ = nullptr;
  std::vector<Packet> pkts;
  std::vector<sim::Time> times;
};

TEST(Channel, SerializesAtLinkRate) {
  sim::Simulator sim;
  CollectSink sink;
  sink.sim_ = &sim;
  WiredParams params;
  params.rate_bps = 8e6;  // 1 byte per microsecond
  params.propagation = Time::zero();
  params.framing_bytes = 0;
  Channel ch{sim, params, sink};

  Packet p;
  p.payload = 972;  // 1000 wire bytes with UDP+IP headers
  ch.transmit(p);
  ch.transmit(p);
  sim.run();
  ASSERT_EQ(sink.pkts.size(), 2u);
  EXPECT_EQ(sink.times[0], Time::us(1000));
  EXPECT_EQ(sink.times[1], Time::us(2000));
}

TEST(Channel, DropsWhenQueueFull) {
  sim::Simulator sim;
  CollectSink sink;
  WiredParams params;
  params.rate_bps = 1e3;  // very slow so the queue backs up
  params.queue_limit_bytes = 3000;
  Channel ch{sim, params, sink};
  Packet p;
  p.payload = 1000;
  EXPECT_TRUE(ch.transmit(p));
  EXPECT_TRUE(ch.transmit(p));
  EXPECT_FALSE(ch.transmit(p));  // third exceeds 3000-byte cap
  EXPECT_EQ(ch.packets_dropped(), 1u);
}

TEST(Channel, BacklogDrainsAfterDelivery) {
  sim::Simulator sim;
  CollectSink sink;
  Channel ch{sim, {}, sink};
  Packet p;
  p.payload = 500;
  ch.transmit(p);
  EXPECT_GT(ch.backlog_bytes(), 0u);
  sim.run();
  EXPECT_EQ(ch.backlog_bytes(), 0u);
  EXPECT_EQ(ch.packets_sent(), 1u);
}

// A burst chain of `n` numbered packets, all to `dst`.
ChunkQueue make_burst(const std::shared_ptr<ChunkPool>& pool, int n,
                      std::uint32_t payload,
                      Ipv4Addr dst = Ipv4Addr::octets(172, 16, 0, 1)) {
  ChunkQueue q{pool};
  for (int i = 0; i < n; ++i) {
    Packet p = numbered();
    p.dst = dst;
    p.payload = payload;
    q.push(std::move(p));
  }
  return q;
}

// Single packets and burst chains share one serializer, so they reach the
// sink in the order they were queued, each at busy_until_ + propagation.
TEST(Channel, PacketsAndBurstsArriveInPushOrder) {
  sim::Simulator sim;
  CollectSink sink;  // unbundles bursts through handle_packet
  sink.sim_ = &sim;
  WiredParams params;
  params.rate_bps = 8e6;  // 1 byte per microsecond
  params.propagation = Time::us(5);
  params.framing_bytes = 0;
  Channel ch{sim, params, sink};
  auto pool = std::make_shared<ChunkPool>();
  std::vector<std::uint32_t> order;
  auto packet = [&] {
    Packet p = numbered();
    p.payload = 972;  // 1000 wire bytes
    order.push_back(seq_of(p));
    ASSERT_TRUE(ch.transmit(std::move(p)));
  };
  auto burst = [&](int n) {
    ChunkQueue b = make_burst(pool, n, 472);  // 500 wire bytes each
    b.for_each([&](const Chunk& c) { order.push_back(seq_of(c.data->pkt)); });
    ASSERT_TRUE(ch.transmit_burst(std::move(b)));
  };
  // t=0: packet [0,1000), burst of 2 [1000,2000), packet [2000,3000).
  packet();
  burst(2);
  packet();
  // t=2500, mid-flight: burst of 4 [3000,5000), packet [5000,6000).
  // t=7000, idle line: burst of 2 [7000,8000).
  sim.at(Time::us(2500), [&] {
    burst(4);
    packet();
  });
  sim.at(Time::us(7000), [&] { burst(2); });
  sim.run();

  const std::vector<Time> want = {
      Time::us(1005), Time::us(2005), Time::us(2005), Time::us(3005),
      Time::us(5005), Time::us(5005), Time::us(5005), Time::us(5005),
      Time::us(6005), Time::us(8005), Time::us(8005)};
  ASSERT_EQ(sink.pkts.size(), order.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    EXPECT_EQ(seq_of(sink.pkts[i]), order[i]) << "arrival " << i;
    EXPECT_EQ(sink.times[i], want[i]) << "arrival " << i;
  }
  EXPECT_EQ(ch.backlog_bytes(), 0u);
}

TEST(EthernetLan, RoutesByDestinationIp) {
  sim::Simulator sim;
  CollectSink s1, s2, sbridge;
  EthernetLan lan{sim};
  const auto ip1 = Ipv4Addr::octets(10, 0, 0, 1);
  const auto ip2 = Ipv4Addr::octets(10, 0, 0, 2);
  const auto p1 = lan.attach(s1, ip1);
  lan.attach(s2, ip2);
  lan.attach_default(sbridge);

  Packet p;
  p.src = ip1;
  p.dst = ip2;
  lan.send(p1, p);
  sim.run();
  EXPECT_EQ(s2.pkts.size(), 1u);
  EXPECT_TRUE(s1.pkts.empty());
  EXPECT_TRUE(sbridge.pkts.empty());
}

TEST(EthernetLan, UnknownDestinationGoesToDefaultPort) {
  sim::Simulator sim;
  CollectSink s1, sbridge;
  EthernetLan lan{sim};
  const auto p1 = lan.attach(s1, Ipv4Addr::octets(10, 0, 0, 1));
  lan.attach_default(sbridge);
  Packet p;
  p.dst = Ipv4Addr::octets(172, 16, 0, 9);  // a wireless-side client
  lan.send(p1, p);
  sim.run();
  EXPECT_EQ(sbridge.pkts.size(), 1u);
}

// -- Wireless ------------------------------------------------------------------

class FakeStation : public WirelessStation {
 public:
  bool listening() const override { return listen; }
  void deliver(Packet pkt, sim::Duration airtime) override {
    if (clock) times.push_back(clock->now());
    delivered.push_back(std::move(pkt));
    last_airtime = airtime;
  }
  void missed(const Packet&, sim::Duration) override { ++missed_count; }
  void on_air(sim::Time, sim::Duration d) override { air_total += d; }

  bool listen = true;
  const sim::Simulator* clock = nullptr;  // set to record delivery times
  std::vector<Packet> delivered;
  std::vector<sim::Time> times;
  int missed_count = 0;
  sim::Duration last_airtime;
  sim::Duration air_total;
};

struct WirelessFixture : ::testing::Test {
  WirelessFixture() : sim(5), medium(sim, params()) {
    ap_id = medium.attach_access_point(ap);
    c1_id = medium.attach_station(c1, Ipv4Addr::octets(172, 16, 0, 1));
    c2_id = medium.attach_station(c2, Ipv4Addr::octets(172, 16, 0, 2));
  }
  static WirelessParams params() {
    WirelessParams p;
    p.per_frame_overhead = Time::us(100);
    p.propagation = Time::zero();
    return p;
  }
  Packet downlink_to(Ipv4Addr dst, std::uint32_t bytes = 1000) {
    Packet p = numbered();
    p.src = Ipv4Addr::octets(10, 0, 0, 1);
    p.dst = dst;
    p.payload = bytes;
    return p;
  }
  sim::Simulator sim;
  WirelessMedium medium;
  FakeStation ap, c1, c2;
  WirelessMedium::StationId ap_id, c1_id, c2_id;
};

TEST_F(WirelessFixture, UnicastDownlinkReachesAddressedStationOnly) {
  medium.transmit(ap_id, downlink_to(Ipv4Addr::octets(172, 16, 0, 1)));
  sim.run();
  EXPECT_EQ(c1.delivered.size(), 1u);
  EXPECT_TRUE(c2.delivered.empty());
  EXPECT_EQ(c2.missed_count, 0);
}

TEST_F(WirelessFixture, SleepingStationMissesFrame) {
  c1.listen = false;
  medium.transmit(ap_id, downlink_to(Ipv4Addr::octets(172, 16, 0, 1)));
  sim.run();
  EXPECT_TRUE(c1.delivered.empty());
  EXPECT_EQ(c1.missed_count, 1);
  EXPECT_EQ(medium.frames_missed(), 1u);
}

TEST_F(WirelessFixture, BroadcastReachesAllListeningStations) {
  c2.listen = false;
  medium.transmit(ap_id, downlink_to(Ipv4Addr::broadcast()));
  sim.run();
  EXPECT_EQ(c1.delivered.size(), 1u);
  EXPECT_EQ(c2.missed_count, 1);
}

TEST_F(WirelessFixture, UplinkAlwaysGoesToAccessPoint) {
  Packet p;
  p.src = Ipv4Addr::octets(172, 16, 0, 1);
  p.dst = Ipv4Addr::octets(10, 0, 0, 7);  // a wired server
  medium.transmit(c1_id, p);
  sim.run();
  EXPECT_EQ(ap.delivered.size(), 1u);
  EXPECT_TRUE(c2.delivered.empty());
}

TEST_F(WirelessFixture, ChannelSerializesTransmissions) {
  medium.transmit(ap_id, downlink_to(Ipv4Addr::octets(172, 16, 0, 1)));
  medium.transmit(ap_id, downlink_to(Ipv4Addr::octets(172, 16, 0, 2)));
  // Both queued at t=0; the second must wait for the first's airtime.
  const sim::Duration one = medium.airtime_of(downlink_to(Ipv4Addr{1}));
  sim.run();
  EXPECT_EQ(sim.now(), one * 2);
}

TEST_F(WirelessFixture, AirtimeChargedToSender) {
  auto pkt = downlink_to(Ipv4Addr::octets(172, 16, 0, 1));
  const sim::Duration at = medium.airtime_of(pkt);
  medium.transmit(ap_id, pkt);
  sim.run();
  EXPECT_EQ(ap.air_total, at);
}

TEST_F(WirelessFixture, BroadcastUsesBasicRate) {
  Packet uni = downlink_to(Ipv4Addr::octets(172, 16, 0, 1));
  Packet bc = downlink_to(Ipv4Addr::broadcast());
  EXPECT_GT(medium.airtime_of(bc), medium.airtime_of(uni));
}

TEST_F(WirelessFixture, SnifferSeesEveryFrameWithDeliveryFlag) {
  std::vector<SnifferRecord> records;
  medium.add_sniffer([&](const SnifferRecord& r) { records.push_back(r); });
  c1.listen = false;
  medium.transmit(ap_id, downlink_to(Ipv4Addr::octets(172, 16, 0, 1)));
  medium.transmit(ap_id, downlink_to(Ipv4Addr::octets(172, 16, 0, 2)));
  sim.run();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_FALSE(records[0].delivered);
  EXPECT_TRUE(records[1].delivered);
  EXPECT_TRUE(records[0].from_ap);
}

// Frames and burst reservations share busy_until_: each lands at the end
// of its own reservation, and all of them in the order they were queued.
TEST_F(WirelessFixture, FramesAndBurstsFinishInPushOrder) {
  const Ipv4Addr ip1 = Ipv4Addr::octets(172, 16, 0, 1);
  const Ipv4Addr ip2 = Ipv4Addr::octets(172, 16, 0, 2);
  c1.clock = &sim;
  c2.clock = &sim;
  ap.clock = &sim;
  auto pool = std::make_shared<ChunkPool>();
  const WirelessParams wp = params();
  // What each reservation occupies, by the medium's own formulas.
  auto burst_airtime = [&](const ChunkQueue& b) {
    std::uint64_t bits = 0;
    b.for_each([&](const Chunk& c) {
      bits += 8 * (chunk_wire_bytes(c) + wp.mac_framing_bytes);
    });
    return wp.per_frame_overhead * static_cast<std::int64_t>(b.packets()) +
           Time::seconds(static_cast<double>(bits) / wp.rate_bps);
  };
  struct Want {
    std::uint32_t seq;
    Time at;
  };
  std::vector<Want> to_c1, to_c2, to_ap;
  Time busy = Time::zero();
  auto reserve = [&](Time now, sim::Duration airtime) {
    busy = (busy > now ? busy : now) + airtime;
    return busy;
  };
  auto frame = [&](WirelessMedium::StationId from, Packet p,
                   std::vector<Want>& to) {
    to.push_back({seq_of(p), reserve(sim.now(), medium.airtime_of(p))});
    medium.transmit(from, std::move(p));
  };
  auto burst = [&](Ipv4Addr dst, int n, std::vector<Want>& to) {
    ChunkQueue b = make_burst(pool, n, 700, dst);
    const Time end = reserve(sim.now(), burst_airtime(b));
    b.for_each(
        [&](const Chunk& c) { to.push_back({seq_of(c.data->pkt), end}); });
    medium.transmit_burst(ap_id, std::move(b));
  };
  Packet up = numbered();
  up.src = ip1;
  up.dst = Ipv4Addr::octets(10, 0, 0, 1);
  up.payload = 300;

  frame(ap_id, downlink_to(ip1), to_c1);
  burst(ip1, 3, to_c1);
  frame(ap_id, downlink_to(ip2, 200), to_c2);
  burst(ip2, 2, to_c2);
  frame(c1_id, up, to_ap);
  frame(ap_id, downlink_to(ip1, 40), to_c1);
  auto mid_flight = [&] {
    burst(ip1, 5, to_c1);
    frame(ap_id, downlink_to(ip2, 1400), to_c2);
    burst(ip2, 1, to_c2);
  };
  sim.at(Time::ms(3), [&mid_flight] { mid_flight(); });
  sim.run();

  auto expect_arrivals = [](const FakeStation& st,
                            const std::vector<Want>& want) {
    ASSERT_EQ(st.delivered.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(seq_of(st.delivered[i]), want[i].seq) << "arrival " << i;
      EXPECT_EQ(st.times[i], want[i].at) << "arrival " << i;
    }
  };
  expect_arrivals(c1, to_c1);
  expect_arrivals(c2, to_c2);
  expect_arrivals(ap, to_ap);
  EXPECT_EQ(medium.busy_until(), busy);
}

TEST(Wireless, SecondStationWithSameIpTripsCheck) {
  check::ScopedFailureHandler guard{check::throwing_handler};
  sim::Simulator sim;
  WirelessMedium medium{sim};
  FakeStation a, b;
  medium.attach_station(a, Ipv4Addr::octets(172, 16, 0, 1));
  EXPECT_THROW(medium.attach_station(b, Ipv4Addr::octets(172, 16, 0, 1)),
               check::CheckError);
}

TEST_F(WirelessFixture, RandomLossDropsFraction) {
  sim::Simulator sim2(9);
  WirelessMedium m2{sim2, params()};
  channel::ChannelModel flat{channel::ChannelSpec::flat(0.5), 9};
  m2.set_loss_model(&flat);
  FakeStation ap2, st;
  auto apid = m2.attach_access_point(ap2);
  m2.attach_station(st, Ipv4Addr::octets(172, 16, 0, 1));
  for (int i = 0; i < 200; ++i) {
    Packet pkt;
    pkt.dst = Ipv4Addr::octets(172, 16, 0, 1);
    pkt.payload = 100;
    m2.transmit(apid, pkt);
  }
  sim2.run();
  EXPECT_GT(st.delivered.size(), 60u);
  EXPECT_LT(st.delivered.size(), 140u);
  EXPECT_EQ(st.delivered.size() + st.missed_count, 200u);
}

// A loss model that draws nothing and records which row each delivery
// attempt was charged to.
struct RowLog : ChannelLossModel {
  std::uint32_t row_of(Ipv4Addr station) override {
    ips.push_back(station);
    return static_cast<std::uint32_t>(ips.size() - 1);
  }
  bool corrupted(std::uint32_t row, sim::Time) override {
    rows.push_back(row);
    return false;
  }
  std::vector<Ipv4Addr> ips;        // by row
  std::vector<std::uint32_t> rows;  // one per attempt, in order
};

// A frame draws on the row of the client whose channel it crosses: the
// receiver's for downlink, the sender's for uplink.  Rows are resolved when
// the model is installed (for stations already attached) or when a station
// attaches; the access point has none.
TEST_F(WirelessFixture, FrameDrawsOnItsClientsRow) {
  RowLog log;
  medium.set_loss_model(&log);
  FakeStation c3;
  const Ipv4Addr ip3 = Ipv4Addr::octets(172, 16, 0, 3);
  medium.attach_station(c3, ip3);
  ASSERT_EQ(log.ips, (std::vector<Ipv4Addr>{Ipv4Addr::octets(172, 16, 0, 1),
                                            Ipv4Addr::octets(172, 16, 0, 2),
                                            ip3}));
  Packet up;
  up.src = Ipv4Addr::octets(172, 16, 0, 1);
  up.dst = Ipv4Addr::octets(10, 0, 0, 7);
  // An uplink from c1 and a downlink to c1 both draw on c1's row (0); the
  // downlink to c3 on row 2; an uplink sent by c2 on row 1, whatever its
  // source address says.
  medium.transmit(c1_id, up);
  medium.transmit(ap_id, downlink_to(Ipv4Addr::octets(172, 16, 0, 1)));
  medium.transmit(ap_id, downlink_to(ip3));
  medium.transmit(c2_id, up);
  sim.run();
  EXPECT_EQ(log.rows, (std::vector<std::uint32_t>{0, 0, 2, 1}));
  EXPECT_EQ(ap.delivered.size(), 2u);
}

// -- Access point ---------------------------------------------------------------

TEST(AccessPoint, ForwardsDownlinkInFifoOrder) {
  sim::Simulator sim(3);
  WirelessParams wp;
  wp.propagation = Time::zero();
  WirelessMedium medium{sim, wp};
  AccessPointParams app;
  app.p_spike = 0.5;  // heavy jitter to provoke reordering attempts
  app.spike_max = Time::ms(4);
  AccessPoint ap{sim, medium, app};
  FakeStation client;
  medium.attach_station(client, Ipv4Addr::octets(172, 16, 0, 1));

  for (int i = 0; i < 50; ++i) {
    Packet p = numbered();
    p.dst = Ipv4Addr::octets(172, 16, 0, 1);
    p.payload = 100;
    ap.handle_packet(p);
  }
  sim.run();
  ASSERT_EQ(client.delivered.size(), 50u);
  for (std::size_t i = 1; i < client.delivered.size(); ++i)
    EXPECT_LT(seq_of(client.delivered[i - 1]), seq_of(client.delivered[i]));
}

// Single frames and burst chains share the forwarding FIFO's
// last_departure_ clamp.  Heavy jitter makes later arrivals draw shorter
// delays, so many departures clamp to their predecessor's time; every
// payload still leaves at max(now + service delay, previous departure),
// in push order.
TEST(AccessPoint, FramesAndBurstsDepartInPushOrderUnderJitter) {
  constexpr std::uint64_t kSeed = 11;
  sim::Simulator sim(kSeed);
  WirelessParams wp;  // an instant medium: arrival time == departure time
  wp.per_frame_overhead = Time::zero();
  wp.rate_bps = 1e18;
  wp.propagation = Time::zero();
  WirelessMedium medium{sim, wp};
  AccessPointParams app;
  app.base_delay = Time::us(300);
  app.jitter_max = Time::ms(5);
  app.p_spike = 0;  // one uniform draw per service delay
  AccessPoint ap{sim, medium, app};
  const Ipv4Addr ip = Ipv4Addr::octets(172, 16, 0, 1);
  FakeStation client;
  client.clock = &sim;
  medium.attach_station(client, ip);
  auto pool = std::make_shared<ChunkPool>();

  // The AP's service-delay draws, replayed from the same seed.
  sim::Rng draws{kSeed};
  Time last = Time::zero();
  std::vector<std::uint32_t> seqs;
  std::vector<Time> want;
  std::vector<int> push_of;  // which handle_packet/handle_burst call
  int pushes = 0;
  auto depart = [&] {
    ++pushes;
    Time t = sim.now() + app.base_delay +
             Time::ns(static_cast<std::int64_t>(
                 draws.uniform() *
                 static_cast<double>(app.jitter_max.count_ns())));
    if (t < last) t = last;
    last = t;
    return t;
  };
  auto frame = [&] {
    Packet p = numbered();
    p.dst = ip;
    p.payload = 100;
    seqs.push_back(seq_of(p));
    want.push_back(depart());
    push_of.push_back(pushes);
    ap.handle_packet(std::move(p));
  };
  auto burst = [&](int n) {
    ChunkQueue b = make_burst(pool, n, 100, ip);
    const Time t = depart();
    b.for_each([&](const Chunk& c) {
      seqs.push_back(seq_of(c.data->pkt));
      want.push_back(t);
      push_of.push_back(pushes);
    });
    ap.handle_burst(std::move(b));
  };
  auto round = [&] {
    for (int i = 0; i < 4; ++i) {
      frame();
      burst(1 + i % 3);
      frame();
    }
  };
  round();
  sim.at(Time::ms(2), round);  // while the first round is still queued
  sim.at(Time::ms(20), round);
  sim.run();

  ASSERT_EQ(client.delivered.size(), seqs.size());
  for (std::size_t i = 0; i < seqs.size(); ++i) {
    EXPECT_EQ(seq_of(client.delivered[i]), seqs[i]) << "arrival " << i;
    EXPECT_EQ(client.times[i], want[i]) << "arrival " << i;
  }
  // The clamp gave separate pushes equal departure times.
  int clamped = 0;
  for (std::size_t i = 1; i < seqs.size(); ++i)
    if (want[i] == want[i - 1] && push_of[i] != push_of[i - 1]) ++clamped;
  EXPECT_GT(clamped, 0);
  EXPECT_EQ(ap.downlink_forwarded(), seqs.size());
  EXPECT_EQ(ap.backlog_bytes(), 0u);
}

TEST(AccessPoint, UplinkForwardedToWiredSink) {
  sim::Simulator sim(3);
  WirelessMedium medium{sim};
  AccessPoint ap{sim, medium, {}};
  CollectSink wired;
  ap.set_uplink_sink(wired);
  FakeStation client;
  auto cid = medium.attach_station(client, Ipv4Addr::octets(172, 16, 0, 1));
  Packet p;
  p.src = Ipv4Addr::octets(172, 16, 0, 1);
  p.dst = Ipv4Addr::octets(10, 0, 0, 1);
  medium.transmit(cid, p);
  sim.run();
  EXPECT_EQ(wired.pkts.size(), 1u);
}

TEST(AccessPoint, DropsWhenQueueFull) {
  sim::Simulator sim(3);
  WirelessMedium medium{sim};
  AccessPointParams app;
  app.queue_limit_bytes = 2000;
  AccessPoint ap{sim, medium, app};
  FakeStation client;
  medium.attach_station(client, Ipv4Addr::octets(172, 16, 0, 1));
  for (int i = 0; i < 5; ++i) {
    Packet p;
    p.dst = Ipv4Addr::octets(172, 16, 0, 1);
    p.payload = 900;
    ap.handle_packet(p);
  }
  EXPECT_GT(ap.downlink_dropped(), 0u);
}

// -- Node demux -----------------------------------------------------------------

class FakeDatagramHandler : public DatagramHandler {
 public:
  void on_datagram(const Packet& p) override { received.push_back(p); }
  std::vector<Packet> received;
};

TEST(Node, UdpDemuxByPort) {
  sim::Simulator sim;
  Node n{sim, Ipv4Addr::octets(10, 0, 0, 1), "n"};
  FakeDatagramHandler h5, h6;
  n.bind_udp(5000, h5);
  n.bind_udp(6000, h6);
  Packet p;
  p.proto = Protocol::Udp;
  p.dst_port = 6000;
  n.handle_packet(p);
  EXPECT_TRUE(h5.received.empty());
  EXPECT_EQ(h6.received.size(), 1u);
}

TEST(Node, UnroutedPacketsCounted) {
  sim::Simulator sim;
  Node n{sim, Ipv4Addr::octets(10, 0, 0, 1), "n"};
  Packet p;
  p.proto = Protocol::Udp;
  p.dst_port = 1234;
  n.handle_packet(p);
  EXPECT_EQ(n.packets_unrouted(), 1u);
}

class FakeSegmentHandler : public SegmentHandler {
 public:
  void on_segment(const Packet& p) override { received.push_back(p); }
  std::vector<Packet> received;
};

// An idle client's node never binds a socket: a datagram and a SYN both
// go unrouted (unbinding is a no-op), and the first bind or listen routes
// the next packet.
TEST(Node, NodeWithNoSocketsRoutesNothingUntilBound) {
  sim::Simulator sim;
  Node n{sim, Ipv4Addr::octets(172, 16, 0, 1), "idle"};
  Packet dgram;
  dgram.proto = Protocol::Udp;
  dgram.dst_port = 5000;
  Packet syn;
  syn.proto = Protocol::Tcp;
  syn.src = Ipv4Addr::octets(10, 0, 0, 1);
  syn.src_port = 40000;
  syn.dst = n.ip();
  syn.dst_port = 80;
  syn.tcp.syn = true;
  n.unbind_udp(5000);
  n.unlisten_tcp(80);
  n.unregister_tcp(syn.flow());
  n.handle_packet(dgram);
  n.handle_packet(syn);
  EXPECT_EQ(n.packets_received(), 2u);
  EXPECT_EQ(n.packets_unrouted(), 2u);

  FakeDatagramHandler udp;
  n.bind_udp(5000, udp);
  n.handle_packet(dgram);
  EXPECT_EQ(udp.received.size(), 1u);
  FakeSegmentHandler tcp;
  n.listen_tcp(80, [&tcp](const Packet&) -> SegmentHandler* { return &tcp; });
  n.handle_packet(syn);
  EXPECT_EQ(tcp.received.size(), 1u);
  EXPECT_EQ(n.packets_unrouted(), 2u);
}

TEST(Node, DuplicateUdpBindThrows) {
  sim::Simulator sim;
  Node n{sim, Ipv4Addr::octets(10, 0, 0, 1), "n"};
  FakeDatagramHandler h;
  n.bind_udp(5000, h);
  EXPECT_THROW(n.bind_udp(5000, h), std::logic_error);
}

TEST(Node, SendStampsTimestamp) {
  sim::Simulator sim;
  Node n{sim, Ipv4Addr::octets(10, 0, 0, 1), "n"};
  Packet out;
  n.set_transmitter([&](Packet p) { out = std::move(p); });
  sim.after(Time::ms(5), [&] {
    Packet p;
    n.send(std::move(p));
  });
  sim.run();
  EXPECT_EQ(out.sent_at, Time::ms(5));
}

TEST(Node, EphemeralPortsUnique) {
  sim::Simulator sim;
  Node n{sim, Ipv4Addr::octets(10, 0, 0, 1), "n"};
  EXPECT_NE(n.alloc_port(), n.alloc_port());
}

}  // namespace
}  // namespace pp::net
