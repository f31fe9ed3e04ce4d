#include <gtest/gtest.h>

#include "testutil.hpp"
#include "transport/udp.hpp"

namespace pp::transport {
namespace {

using test::NodePair;

TEST(UdpSocket, SendReceiveRoundTrip) {
  NodePair np;
  UdpSocket sa{np.a, 1000};
  UdpSocket sb{np.b, 2000};
  std::uint64_t got = 0;
  sb.set_receive_fn([&](const net::Packet& p) { got += p.payload; });
  sa.send_to(np.b.ip(), 2000, 1234);
  np.sim.run();
  EXPECT_EQ(got, 1234u);
  EXPECT_EQ(sa.datagrams_sent(), 1u);
  EXPECT_EQ(sb.datagrams_received(), 1u);
}

TEST(UdpSocket, EphemeralPortAssigned) {
  NodePair np;
  UdpSocket s{np.a};
  EXPECT_GE(s.port(), 40000);
}

TEST(UdpSocket, UnbindsOnDestruction) {
  NodePair np;
  {
    UdpSocket s{np.a, 1000};
  }
  UdpSocket again{np.a, 1000};  // would throw if still bound
  SUCCEED();
}

TEST(UdpSocket, CarriesApplicationMessage) {
  NodePair np;
  UdpSocket sa{np.a, 1000};
  UdpSocket sb{np.b, 2000};
  std::uint32_t seen = 0;
  sb.set_receive_fn([&](const net::Packet& p) {
    if (p.app == net::AppKind::Media) seen = p.media.seq;
  });
  net::Packet pkt = sa.datagram(np.b.ip(), 2000, 100);
  pkt.set_media({42, 1});
  np.a.send(std::move(pkt));
  np.sim.run();
  EXPECT_EQ(seen, 42u);
  EXPECT_EQ(sa.datagrams_sent(), 1u);
}

TEST(UdpSocket, LossDropsDatagramsSilently) {
  NodePair np{3, {}, 1.0};
  UdpSocket sa{np.a, 1000};
  UdpSocket sb{np.b, 2000};
  int count = 0;
  sb.set_receive_fn([&](const net::Packet&) { ++count; });
  for (int i = 0; i < 10; ++i) sa.send_to(np.b.ip(), 2000, 100);
  np.sim.run();
  EXPECT_EQ(count, 0);
}

}  // namespace
}  // namespace pp::transport
