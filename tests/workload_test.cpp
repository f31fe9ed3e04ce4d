#include <gtest/gtest.h>

#include <memory>

#include "testutil.hpp"
#include "workload/ftp.hpp"
#include "workload/video.hpp"
#include "workload/web.hpp"

namespace pp::workload {
namespace {

using sim::Time;
using test::NodePair;

// -- Video trace generation --------------------------------------------------------

TEST(VideoTrace, TotalBytesMatchEffectiveBitrate) {
  for (const auto& f : kFidelities) {
    const auto trace = generate_video_trace(f.effective_kbps, 1);
    std::uint64_t total = 0;
    for (const auto& p : trace) total += p.bytes;
    const double expect = f.effective_kbps * 1000.0 / 8.0 * 119.0;
    EXPECT_NEAR(static_cast<double>(total), expect, expect * 0.02)
        << f.nominal_kbps << "K";
  }
}

TEST(VideoTrace, Deterministic) {
  const auto a = generate_video_trace(225, 7);
  const auto b = generate_video_trace(225, 7);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].offset, b[i].offset);
    EXPECT_EQ(a[i].bytes, b[i].bytes);
  }
}

TEST(VideoTrace, DifferentSeedsDiffer) {
  const auto a = generate_video_trace(225, 7);
  const auto b = generate_video_trace(225, 8);
  bool differ = a.size() != b.size();
  for (std::size_t i = 0; !differ && i < a.size(); ++i)
    differ = a[i].bytes != b[i].bytes;
  EXPECT_TRUE(differ);
}

TEST(VideoTrace, OffsetsMonotoneAndWithinDuration) {
  const auto trace = generate_video_trace(450, 3);
  for (std::size_t i = 1; i < trace.size(); ++i)
    EXPECT_GE(trace[i].offset, trace[i - 1].offset);
  EXPECT_LE(trace.back().offset, Time::seconds(119.0));
}

TEST(VideoTrace, PacketsRespectMtu) {
  const auto trace = generate_video_trace(450, 3);
  for (const auto& p : trace) {
    EXPECT_GT(p.bytes, 0u);
    EXPECT_LE(p.bytes, 1400u);
  }
}

TEST(VideoTrace, IsVariableBitrate) {
  // Per-second byte counts must vary (scene structure), not be constant.
  const auto trace = generate_video_trace(225, 5);
  std::vector<std::uint64_t> per_sec(119, 0);
  for (const auto& p : trace) {
    const auto s = static_cast<std::size_t>(p.offset.to_seconds());
    if (s < per_sec.size()) per_sec[s] += p.bytes;
  }
  std::uint64_t mn = ~0ull, mx = 0;
  for (auto v : per_sec) {
    mn = std::min(mn, v);
    mx = std::max(mx, v);
  }
  EXPECT_GT(mx, mn * 3 / 2) << "trace looks constant-bitrate";
}

TEST(VideoTrace, FidelityIndexLookup) {
  EXPECT_EQ(fidelity_index(56), 0);
  EXPECT_EQ(fidelity_index(512), 3);
  EXPECT_THROW(fidelity_index(64), std::invalid_argument);
}

// -- Video server/client over a plain pipe (no proxy) -------------------------------

struct VideoFixture : ::testing::Test {
  VideoFixture() : np{3}, server{np.a}, client{np.b, np.a.ip()} {
    server.expect_client(np.b.ip(), 0);
  }
  NodePair np;
  VideoServer server;
  VideoClient client;
};

TEST_F(VideoFixture, PlayStartsStreamAndDeliversPackets) {
  client.play(Time::ms(100));
  np.sim.run_until(Time::sec(20));
  EXPECT_EQ(server.streams_started(), 1);
  EXPECT_GT(client.stats().packets, 50u);
  EXPECT_EQ(client.loss_fraction(), 0.0);
  EXPECT_EQ(client.stats().fidelity_seen, 0);
}

TEST_F(VideoFixture, StreamFinishesAfterTrailerDuration) {
  client.play(Time::ms(100));
  np.sim.run_until(Time::sec(125));
  const auto* st = server.stats_for(np.b.ip());
  ASSERT_NE(st, nullptr);
  EXPECT_TRUE(st->finished);
  const double expect = 34 * 1000.0 / 8.0 * 119.0;
  EXPECT_NEAR(static_cast<double>(client.stats().bytes), expect,
              expect * 0.03);
}

TEST_F(VideoFixture, ReceiverReportsFlow) {
  client.play(Time::ms(100));
  np.sim.run_until(Time::sec(30));
  EXPECT_GT(client.stats().reports_sent, 5u);
}

TEST_F(VideoFixture, UnknownClientIgnored) {
  // A client that was never registered with the server gets no stream.
  NodePair np2{9};
  VideoServer s2{np2.a};
  VideoClient c2{np2.b, np2.a.ip()};
  c2.play(Time::ms(100));
  np2.sim.run_until(Time::sec(5));
  EXPECT_EQ(s2.streams_started(), 0);
  EXPECT_EQ(c2.stats().packets, 0u);
}

TEST(VideoAdaptation, ServerDownshiftsOnReportedLoss) {
  NodePair np{5, {}, 0.10};  // 10% loss on the pipe
  VideoServer server{np.a};
  server.expect_client(np.b.ip(), 3);  // 512K
  VideoClient client{np.b, np.a.ip()};
  client.play(Time::ms(100));
  np.sim.run_until(Time::sec(60));
  const auto* st = server.stats_for(np.b.ip());
  ASSERT_NE(st, nullptr);
  EXPECT_GT(st->downshifts, 0);
  EXPECT_LT(st->current_fidelity, 3);
}

TEST(VideoAdaptation, DisabledServerNeverAdapts) {
  NodePair np{5, {}, 0.10};
  VideoServerParams params;
  params.adaptive = false;
  VideoServer server{np.a, params};
  server.expect_client(np.b.ip(), 3);
  VideoClient client{np.b, np.a.ip()};
  client.play(Time::ms(100));
  np.sim.run_until(Time::sec(60));
  const auto* st = server.stats_for(np.b.ip());
  ASSERT_NE(st, nullptr);
  EXPECT_EQ(st->downshifts, 0);
}

// A lossy receiver report, sent from `from` on `node` to the server's
// media port.
void send_lossy_report(net::Node& node, transport::UdpSocket& from,
                       net::Ipv4Addr server) {
  net::Packet rr = from.datagram(server, kMediaPort, 64);
  rr.set_report({0.5, 0});
  node.send(std::move(rr));
}

TEST(VideoAdaptation, ReportAfterStreamEndIsIgnored) {
  NodePair np{5};
  VideoServerParams params;
  params.trace.duration_s = 3.0;
  VideoServer server{np.a, params};
  server.expect_client(np.b.ip(), 3);  // 512K
  VideoClient client{np.b, np.a.ip()};
  client.play(Time::ms(100));
  np.sim.run_until(Time::sec(10));
  const auto* st = server.stats_for(np.b.ip());
  ASSERT_NE(st, nullptr);
  ASSERT_TRUE(st->finished);
  transport::UdpSocket reporter{np.b};
  send_lossy_report(np.b, reporter, np.a.ip());
  np.sim.run_until(Time::sec(11));
  EXPECT_EQ(st->downshifts, 0);
  EXPECT_EQ(st->current_fidelity, 3);
}

// A downshift while the stream is past the lower trace's last packet has
// nothing left to resume: the stream finishes, and the send already armed
// goes nowhere.
TEST(VideoAdaptation, DownshiftPastTheLowerTraceFinishesTheStream) {
  NodePair np{5};
  VideoServerParams params;
  params.trace.duration_s = 3.0;
  params.trace_seed = 1;  // its 512K trace outlasts its 256K one
  params.adapt_cooldown = Time::zero();
  const VideoPacketTrace higher = generate_video_trace(
      kFidelities[3].effective_kbps, params.trace_seed + 3, params.trace);
  const VideoPacketTrace lower = generate_video_trace(
      kFidelities[2].effective_kbps, params.trace_seed + 2, params.trace);
  // The first higher-fidelity packet later in stream time than the whole
  // lower trace; the report must land after the one before it goes out.
  std::size_t k = 0;
  while (k < higher.size() && higher[k].offset <= lower.back().offset) ++k;
  ASSERT_GT(k, 0u);
  ASSERT_LT(k, higher.size());
  ASSERT_GT(higher[k].offset - higher[k - 1].offset, Time::ms(2));

  VideoServer server{np.a, params};
  server.expect_client(np.b.ip(), 3);
  VideoClient client{np.b, np.a.ip()};
  client.play(Time::ms(100));
  // The stream's epoch, to within 100 us.
  Time epoch = Time::zero();
  while (server.streams_started() == 0) {
    epoch = epoch + Time::us(100);
    np.sim.run_until(epoch);
  }
  transport::UdpSocket reporter{np.b};
  const Time at = epoch + higher[k - 1].offset +
                  (higher[k].offset - higher[k - 1].offset) / 2;
  np.sim.at(at, [&] { send_lossy_report(np.b, reporter, np.a.ip()); });
  np.sim.run_until(at + Time::ms(1));
  const auto* st = server.stats_for(np.b.ip());
  ASSERT_NE(st, nullptr);
  EXPECT_EQ(st->downshifts, 1);
  EXPECT_TRUE(st->finished);
  EXPECT_EQ(st->packets_sent, k);
  np.sim.run_until(Time::sec(10));
  EXPECT_EQ(st->packets_sent, k);
}

// -- Web scripts & browsing ----------------------------------------------------------

TEST(WebScript, DeterministicAndSized) {
  const auto a = generate_web_script(3);
  const auto b = generate_web_script(3);
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(script_bytes(a), script_bytes(b));
  EXPECT_EQ(a.size(), 20u);
}

TEST(WebScript, ObjectCountsInRange) {
  WebScriptParams p;
  p.min_objects = 2;
  p.max_objects = 8;
  const auto script = generate_web_script(7, p);
  for (const auto& v : script) {
    EXPECT_GE(v.objects.size(), 2u);
    EXPECT_LE(v.objects.size(), 8u);
    EXPECT_GE(v.main_bytes, 2'000u);
    for (auto o : v.objects) EXPECT_GE(o, 2'000u);
  }
}

TEST(WebBrowsing, CompletesPagesOverPlainPipe) {
  NodePair np{11};
  HttpServer server{np.a};
  WebScriptParams wsp;
  wsp.pages = 4;
  wsp.think_mean_s = 0.3;
  const auto script = generate_web_script(2, wsp);
  server.add_script(np.b.ip(), script);
  WebBrowsingClient client{np.b, np.a.ip(), script};
  client.start(Time::ms(100));
  np.sim.run_until(Time::sec(60));
  EXPECT_EQ(client.stats().pages_completed, 4);
  EXPECT_TRUE(client.finished());
  EXPECT_EQ(client.stats().bytes_received, script_bytes(script));
}

TEST(WebBrowsing, ParallelismBounded) {
  NodePair np{11};
  HttpServer server{np.a};
  WebScriptParams wsp;
  wsp.pages = 1;
  wsp.min_objects = wsp.max_objects = 8;
  const auto script = generate_web_script(2, wsp);
  server.add_script(np.b.ip(), script);
  WebClientParams cp;
  cp.max_parallel = 2;
  WebBrowsingClient client{np.b, np.a.ip(), script, cp};
  client.start(Time::zero());
  np.sim.run_until(Time::sec(60));
  EXPECT_EQ(client.stats().objects_completed, 9);  // main + 8
}

// -- Ftp -----------------------------------------------------------------------------

TEST(Ftp, DownloadCompletesAndTimes) {
  NodePair np{13};
  FtpServer server{np.a};
  server.add_file(np.b.ip(), 500'000);
  FtpClient client{np.b, np.a.ip()};
  client.download(Time::ms(100));
  np.sim.run_until(Time::sec(60));
  EXPECT_TRUE(client.stats().finished);
  EXPECT_EQ(client.stats().bytes_received, 500'000u);
  EXPECT_GT(client.stats().transfer_seconds(), 0.0);
}

TEST(Ftp, UnregisteredClientGetsNothing) {
  NodePair np{13};
  FtpServer server{np.a};
  FtpClient client{np.b, np.a.ip()};
  client.download(Time::ms(100));
  np.sim.run_until(Time::sec(5));
  EXPECT_FALSE(client.stats().finished);
  EXPECT_EQ(client.stats().bytes_received, 0u);
}

}  // namespace
}  // namespace pp::workload
