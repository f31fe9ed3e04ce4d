// Fault-injection layer tests: the named churn stream, the Gilbert-Elliott
// channel preset, deep fades on the medium, component effects (AP stall,
// link flap, proxy pause), graceful degradation end-to-end through the
// wireless medium, and the fault plan's window pairing audit.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "channel/model.hpp"
#include "check/check.hpp"
#include "exp/builder.hpp"
#include "exp/scenario.hpp"
#include "exp/testbed.hpp"
#include "fault/plan.hpp"
#include "fault/spec.hpp"
#include "net/access_point.hpp"
#include "net/link.hpp"
#include "net/wireless.hpp"
#include "sim/simulator.hpp"

namespace pp::fault {
namespace {

using sim::Time;

const net::Ipv4Addr kClient = net::Ipv4Addr::octets(172, 16, 0, 1);

net::Packet downlink_to(net::Ipv4Addr dst) {
  net::Packet p;
  p.src = net::Ipv4Addr::octets(10, 0, 0, 1);
  p.dst = dst;
  p.proto = net::Protocol::Udp;
  p.payload = 500;
  return p;
}

// -- Named RNG stream --------------------------------------------------------------

TEST(FaultStream, ReproduciblePerSeedAndIndependent) {
  sim::Rng a = churn_stream(42);
  sim::Rng b = churn_stream(42);
  for (int i = 0; i < 256; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
  sim::Rng c = churn_stream(43);
  sim::Rng d = churn_stream(42);
  // Different run seed diverges immediately; the stream tag keeps the
  // churn stream distinct from a raw Rng{seed} (the simulator's stream).
  EXPECT_NE(c.next_u64(), d.next_u64());
  EXPECT_NE(sim::Rng{42}.next_u64(), churn_stream(42).next_u64());
}

// -- Gilbert-Elliott channel (the ChannelSpec::two_state preset) -------------------

TEST(GilbertElliott, CorruptionSequenceIsDeterministic) {
  const channel::ChannelSpec spec =
      channel::ChannelSpec::two_state(0.1, 0.2, 0.001, 0.85);
  channel::ChannelModel m1{spec, 7};
  channel::ChannelModel m2{spec, 7};
  const std::uint32_t r1 = m1.row_of(kClient);
  const std::uint32_t r2 = m2.row_of(kClient);
  for (int i = 0; i < 2000; ++i) {
    EXPECT_EQ(m1.attempt(r1, Time::ms(i)).lost,
              m2.attempt(r2, Time::ms(i)).lost);
  }
  EXPECT_EQ(m1.stats().losses, m2.stats().losses);
  EXPECT_EQ(m1.stats().worse_entries, m2.stats().worse_entries);
  EXPECT_GT(m1.stats().losses, 0u);
  EXPECT_GT(m1.stats().worse_entries, 0u);
}

TEST(GilbertElliott, LossesClusterInBadState) {
  // With rare entries into a long, lossy bad state, overall loss must sit
  // far above the good-state rate yet losses must arrive in bursts: more
  // clustered than independent drops at the same average rate.
  channel::ChannelModel model{
      channel::ChannelSpec::two_state(0.01, 0.05, 0.0, 0.9), 11};
  const int n = 20000;
  int losses = 0;
  int adjacent = 0;  // lost frame immediately following a lost frame
  bool prev = false;
  const std::uint32_t row = model.row_of(kClient);
  for (int i = 0; i < n; ++i) {
    const bool lost = model.attempt(row, Time::ms(5 * i)).lost;
    if (lost) {
      ++losses;
      if (prev) ++adjacent;
    }
    prev = lost;
  }
  const double rate = static_cast<double>(losses) / n;
  EXPECT_GT(rate, 0.05);
  EXPECT_LT(rate, 0.5);
  // Independent losses would give adjacent/losses ~= rate; bursty losses
  // repeat far more often.
  EXPECT_GT(static_cast<double>(adjacent) / losses, 3.0 * rate);
}

TEST(GilbertElliott, PerClientChainsAreIndependent) {
  channel::ChannelModel model{
      channel::ChannelSpec::two_state(0.05, 0.05, 0.0, 1.0), 3};
  // Interleaved draws on two channels both make progress.  (Which row a
  // frame draws on is the medium's call: see net_test's
  // WirelessFixture.FrameDrawsOnItsClientsRow.)
  const std::uint32_t a = model.row_of(kClient);
  const std::uint32_t b =
      model.row_of(net::Ipv4Addr::octets(172, 16, 0, 2));
  int a_lost = 0;
  int b_lost = 0;
  for (int i = 0; i < 5000; ++i) {
    if (model.corrupted(a, Time::ms(5 * i))) ++a_lost;
    if (model.corrupted(b, Time::ms(5 * i))) ++b_lost;
  }
  EXPECT_GT(a_lost, 0);
  EXPECT_GT(b_lost, 0);
}

// -- Deep fade ---------------------------------------------------------------------

// An always-listening radio that records, per frame addressed to it,
// whether the frame was delivered (true) or lost (false).
struct Radio : net::WirelessStation {
  std::vector<bool> heard;
  bool listening() const override { return true; }
  void deliver(net::Packet, sim::Duration) override { heard.push_back(true); }
  void missed(const net::Packet&, sim::Duration) override {
    heard.push_back(false);
  }
};

TEST(DeepFade, TotalLossInsideWindowOnly) {
  check::ScopedFailureHandler guard{check::throwing_handler};
  sim::Simulator sim{5};
  net::WirelessMedium medium{sim};  // no loss model: the fade is the only loss
  Radio ap, faded, clean;
  const auto ap_id = medium.attach_access_point(ap);
  const auto faded_id = medium.attach_station(faded, kClient);
  const net::Ipv4Addr other = net::Ipv4Addr::octets(172, 16, 0, 2);
  medium.attach_station(clean, other);

  FaultSpec spec;
  spec.fade(kClient, Time::ms(100), Time::ms(50));
  FaultPlan plan{sim, spec};
  plan.attach_medium(medium);
  plan.arm();

  // Frames take ~2 ms of airtime: 90 and 160 land outside the window, 110
  // and 140 inside it.
  for (const int t : {90, 110, 140, 160}) {
    sim.at(Time::ms(t), [&] { medium.transmit(ap_id, downlink_to(kClient)); });
  }
  // Another client's channel is untouched; the faded client's uplink is
  // lost too (the fade is on its channel, both directions).
  sim.at(Time::ms(120), [&] {
    medium.transmit(ap_id, downlink_to(other));
    net::Packet up;
    up.src = kClient;
    up.dst = net::Ipv4Addr::octets(10, 0, 0, 1);
    medium.transmit(faded_id, std::move(up));
  });
  sim.run();

  EXPECT_EQ(faded.heard, (std::vector<bool>{true, false, false, true}));
  EXPECT_EQ(clean.heard, std::vector<bool>{true});
  EXPECT_EQ(ap.heard, std::vector<bool>{false});
  EXPECT_EQ(plan.stats().fade_losses, 3u);
  EXPECT_FALSE(plan.active(FaultKind::DeepFade));
}

// A fade on one client draws no random numbers, and every client's channel
// has its own stream: client 1's corruption sequence must come out bit
// for bit the same whether or not client 0 is faded meanwhile.
TEST(DeepFade, FadeLeavesOtherClientsCorruptionSequenceIdentical) {
  const net::Ipv4Addr c0 = net::Ipv4Addr::octets(172, 16, 0, 1);
  const net::Ipv4Addr c1 = net::Ipv4Addr::octets(172, 16, 0, 2);
  const auto run = [&](bool fade) {
    sim::Simulator sim{9};
    net::WirelessMedium medium{sim};
    channel::ChannelModel chan{channel::ChannelSpec::ladder(3, 0.85), 9};
    medium.set_loss_model(&chan);
    Radio ap, r0, r1;
    const auto ap_id = medium.attach_access_point(ap);
    medium.attach_station(r0, c0);
    medium.attach_station(r1, c1);
    FaultSpec spec;
    if (fade) spec.fade(c0, Time::seconds(2.0), Time::seconds(3.0));
    FaultPlan plan{sim, spec};
    plan.attach_medium(medium);
    plan.arm();
    for (int i = 0; i < 2000; ++i) {
      sim.at(Time::ms(4 * i), [&] {
        medium.transmit(ap_id, downlink_to(c0));
        medium.transmit(ap_id, downlink_to(c1));
      });
    }
    sim.run();
    if (fade) {
      EXPECT_GT(plan.stats().fade_losses, 0u);
    }
    return r1.heard;
  };
  const std::vector<bool> plain = run(false);
  const std::vector<bool> faded = run(true);
  ASSERT_EQ(plain.size(), 2000u);
  // The ladder does corrupt client 1's frames, so the comparison has teeth.
  EXPECT_NE(std::count(plain.begin(), plain.end(), false), 0);
  EXPECT_EQ(plain, faded);
}

// -- Component effects -------------------------------------------------------------

TEST(LinkFlap, DownChannelDropsEverything) {
  sim::Simulator sim{1};
  struct CountSink : net::PacketSink {
    int n = 0;
    void handle_packet(net::Packet) override { ++n; }
  } sink;
  net::Channel ch{sim, net::WiredParams{}, sink};
  ch.set_down(true);
  EXPECT_FALSE(ch.transmit(downlink_to(kClient)));
  EXPECT_EQ(ch.packets_dropped(), 1u);
  ch.set_down(false);
  EXPECT_TRUE(ch.transmit(downlink_to(kClient)));
  sim.run();
  EXPECT_EQ(sink.n, 1);
  EXPECT_EQ(ch.packets_sent(), 1u);
}

TEST(ApStall, FreezesQueueAndReleasesInOrder) {
  check::ScopedFailureHandler guard{check::throwing_handler};
  sim::Simulator sim{1};
  net::WirelessMedium medium{sim};
  net::AccessPoint ap{sim, medium};
  struct St : net::WirelessStation {
    std::vector<std::uint32_t> seqs;
    bool listening() const override { return true; }
    void deliver(net::Packet p, sim::Duration) override {
      seqs.push_back(p.media.seq);
    }
  } st;
  medium.attach_station(st, kClient);

  ap.set_stalled(true);
  net::Packet a = downlink_to(kClient);
  net::Packet b = downlink_to(kClient);
  a.set_media({1, 0});
  b.set_media({2, 0});
  sim.at(Time::ms(1), [&] {
    ap.handle_packet(std::move(a));
    ap.handle_packet(std::move(b));
  });
  sim.run_until(Time::ms(100));
  EXPECT_TRUE(st.seqs.empty());
  EXPECT_EQ(ap.stalled_frames(), 2u);
  EXPECT_NO_THROW(ap.audit());  // frozen frames still counted as backlog

  sim.at(Time::ms(101), [&] { ap.set_stalled(false); });
  sim.run_until(Time::ms(200));
  ASSERT_EQ(st.seqs.size(), 2u);
  EXPECT_EQ(st.seqs[0], 1u);  // FIFO across the stall
  EXPECT_EQ(st.seqs[1], 2u);
  EXPECT_EQ(ap.stalled_frames(), 0u);
  EXPECT_NO_THROW(ap.audit());
}

// -- Window pairing ----------------------------------------------------------------

TEST(FaultPlanAudit, NestedWindowsRecoverAndPass) {
  check::ScopedFailureHandler guard{check::throwing_handler};
  sim::Simulator sim{1};
  FaultSpec spec;
  // Two overlapping windows of one kind nest; another kind is independent.
  spec.ap_stall(Time::ms(100), Time::ms(300))
      .ap_stall(Time::ms(200), Time::ms(300))
      .link_flap(Time::ms(250), Time::ms(100));
  FaultPlan plan{sim, spec};
  plan.arm();
  sim.run_until(Time::ms(420));
  EXPECT_TRUE(plan.active(FaultKind::ApStall));
  EXPECT_FALSE(plan.active(FaultKind::LinkFlap));
  EXPECT_THROW(plan.audit(), check::CheckError);
  sim.run_until(Time::ms(500));
  EXPECT_FALSE(plan.active(FaultKind::ApStall));
  EXPECT_NO_THROW(plan.audit());
  EXPECT_EQ(plan.stats().windows_recovered, 3u);
}

// A window still open when the run ends trips the testbed's end-of-run
// audit, with observability compiled in or out.
TEST(FaultPlanAudit, WindowOpenAtFinalizeTrips) {
  check::ScopedFailureHandler guard{check::throwing_handler};
  exp::TestbedParams tp;
  tp.num_clients = 1;
  tp.fault.ap_stall(Time::sec(1), Time::sec(10));
  exp::Testbed bed{tp, std::make_unique<proxy::FixedIntervalScheduler>(
                           Time::ms(500))};
  bed.start(Time::ms(500));
  bed.run_until(Time::sec(2));
  try {
    bed.finalize_audit();
    FAIL() << "the open window did not trip";
  } catch (const check::CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("fault.window.open"),
              std::string::npos)
        << e.what();
  }
}

// -- End-to-end through the testbed ------------------------------------------------

// Deterministic injected schedule loss, end-to-end through the wireless
// medium: a deep fade on client 0 spanning three SRPs (1000/1500/2000 ms at
// the Fixed500 policy) makes it miss schedule broadcasts while client 1
// keeps receiving them.  Exercises the missed-schedule path the paper's
// Section 4.3 analyzes, plus the resync bookkeeping.
TEST(FaultEndToEnd, DeepFadeCausesMissedSchedulesAndResync) {
  check::ScopedFailureHandler guard{check::throwing_handler};
  exp::ScenarioBuilder b;
  b.video(2, 1)  // two 128K video clients
      .policy(exp::IntervalPolicy::Fixed500)
      .duration_s(10.0)
      .wireless_p_loss(0.0);  // fade is the only loss source; AP spikes
                              // stay on — the jitter-derived early guard
                              // absorbs them, so only the fade can miss
  b.fault_spec().fade(exp::testbed_client_ip(0), Time::ms(950), Time::ms(1200));
  const exp::ScenarioResult res = exp::run_scenario(b.build());

  const exp::ClientResult& faded = res.clients[0];
  const exp::ClientResult& clean = res.clients[1];
  // Legacy (paper) policy: the grace timer fires once per outage, then the
  // client waits awake — one counted miss however many SRPs the fade ate.
  EXPECT_EQ(faded.schedules_missed, 1u);
  EXPECT_EQ(faded.first_misses, 1u);
  EXPECT_EQ(faded.repeat_misses, 0u);
  EXPECT_EQ(faded.resyncs, 1u);
  EXPECT_EQ(clean.schedules_missed, 0u);
  EXPECT_EQ(res.fault_stats.windows_activated, 1u);
  EXPECT_EQ(res.fault_stats.windows_recovered, 1u);
  EXPECT_GT(res.fault_stats.fade_losses, 0u);
}

// The same fade with escalation enabled: the daemon gives up waiting after
// one awake miss and sleeps between SRP attempts, trading missed_wait for
// escalated sleeps.
TEST(FaultEndToEnd, EscalationConvertsMissedWaitIntoSleep) {
  check::ScopedFailureHandler guard{check::throwing_handler};
  exp::ScenarioBuilder b;
  b.video(2, 1)
      .policy(exp::IntervalPolicy::Fixed500)
      .duration_s(10.0)
      .wireless_p_loss(0.0);  // see DeepFade above: spikes stay on
  b.fault_spec().fade(exp::testbed_client_ip(0), Time::ms(950), Time::ms(1700));

  const exp::ScenarioResult r_base = exp::run_scenario(b.build());
  const exp::ScenarioResult r_esc =
      exp::run_scenario(b.miss_escalation().build());
  // Baseline counts one miss and burns the outage awake; escalation re-arms
  // per expected SRP (so it counts repeat misses) and sleeps the intervals.
  EXPECT_EQ(r_base.clients[0].escalated_sleeps, 0u);
  EXPECT_EQ(r_base.clients[0].schedules_missed, 1u);
  EXPECT_GE(r_esc.clients[0].schedules_missed, 3u);
  EXPECT_GE(r_esc.clients[0].repeat_misses, 2u);
  EXPECT_GE(r_esc.clients[0].escalated_sleeps, 2u);
  EXPECT_GE(r_esc.clients[0].resyncs, 1u);
  // Sleeping through the outage must cost less than waiting it out awake.
  EXPECT_LT(r_esc.clients[0].energy_mj, r_base.clients[0].energy_mj);
}

TEST(FaultEndToEnd, ApStallWindowPreservesConservation) {
  check::ScopedFailureHandler guard{check::throwing_handler};
  exp::ScenarioBuilder b;
  b.video(1, 1).web(1).policy(exp::IntervalPolicy::Fixed500).duration_s(10.0);
  b.fault_spec().ap_stall(Time::ms(2000), Time::ms(800));
  const exp::ScenarioResult res = exp::run_scenario(b.build());  // audits inside
  EXPECT_EQ(res.fault_stats.windows_activated, 1u);
  EXPECT_EQ(res.fault_stats.windows_recovered, 1u);
  // Traffic kept flowing after recovery.
  EXPECT_GT(res.clients[0].packets_received, 0u);
}

TEST(FaultEndToEnd, ProxyPausePreservesQueuesAcrossWindow) {
  check::ScopedFailureHandler guard{check::throwing_handler};
  exp::ScenarioBuilder b;
  b.video(2, 1).policy(exp::IntervalPolicy::Fixed500).duration_s(10.0);
  b.fault_spec().proxy_pause(Time::ms(3000), Time::ms(900));
  const exp::ScenarioResult res = exp::run_scenario(b.build());
  EXPECT_EQ(res.proxy_stats.pauses, 1u);
  // The proxy queue audit ran inside run_scenario: queued == burst +
  // residual held across the pause.  Scheduling resumed afterwards.
  EXPECT_GT(res.proxy_stats.schedules_sent, 10u);
  EXPECT_GT(res.clients[0].packets_received, 0u);
}

TEST(FaultEndToEnd, LinkFlapRecoversAndAuditsPass) {
  check::ScopedFailureHandler guard{check::throwing_handler};
  exp::ScenarioBuilder b;
  b.video(1, 1).policy(exp::IntervalPolicy::Fixed500).duration_s(10.0);
  b.fault_spec().link_flap(Time::ms(4000), Time::ms(600));
  const exp::ScenarioResult res = exp::run_scenario(b.build());
  EXPECT_EQ(res.fault_stats.windows_activated, 1u);
  EXPECT_EQ(res.fault_stats.windows_recovered, 1u);
  EXPECT_GT(res.clients[0].packets_received, 0u);
}

// Schedule k-repeat: with a clean channel every repeat is a duplicate, so
// clients dedupe k-1 copies per interval and the schedule state machine is
// untouched (same schedules_received as the k=1 run).
TEST(FaultEndToEnd, ScheduleRepeatsAreDeduplicated) {
  check::ScopedFailureHandler guard{check::throwing_handler};
  exp::ScenarioBuilder b;
  b.video(2, 1)
      .policy(exp::IntervalPolicy::Fixed500)
      .duration_s(10.0)
      .wireless_p_loss(0.0);
  const exp::ScenarioResult r1 = exp::run_scenario(b.build());
  const exp::ScenarioResult r3 =
      exp::run_scenario(b.schedule_repeats(3).build());
  // Two repeats per SRP; the final SRP's repeats may land past the horizon.
  EXPECT_GE(r3.proxy_stats.schedule_repeats_sent,
            2 * (r3.proxy_stats.schedules_sent - 1));
  EXPECT_LE(r3.proxy_stats.schedule_repeats_sent,
            2 * r3.proxy_stats.schedules_sent);
  EXPECT_GT(r3.clients[0].repeats_deduped, 0u);
  EXPECT_EQ(r1.clients[0].schedules_received,
            r3.clients[0].schedules_received);
}

// The acceptance scenario: a Gilbert-Elliott bad-state burst spanning
// multiple SRPs plus an AP stall window, with k-repeat and escalation on.
// Completing finish() means every end-of-run audit (AP, proxy, energy,
// fault windows) passed under the throwing handler.
TEST(FaultEndToEnd, CombinedGeBurstAndApStallPassesAllAudits) {
  check::ScopedFailureHandler guard{check::throwing_handler};
  exp::ScenarioBuilder b;
  b.video(2, 1)
      .web(1)
      .policy(exp::IntervalPolicy::Fixed500)
      .duration_s(12.0)
      .schedule_repeats(2)
      .miss_escalation()
      // Mean bad sojourn ~100 ticks (2 s): spans several SRPs.
      .channel(channel::ChannelSpec::two_state(0.02, 0.01, 0.001, 0.95));
  b.fault_spec().ap_stall(Time::ms(5000), Time::ms(700));
  exp::ScenarioRun run{b.build()};
  run.advance(run.horizon());
  const channel::ChannelStats cs = run.bed().channel_model()->stats();
  const exp::ScenarioResult res = run.finish();
  EXPECT_GT(cs.losses, 0u);
  EXPECT_GT(cs.worse_entries, 0u);
  EXPECT_EQ(res.fault_stats.windows_activated, 1u);
  EXPECT_EQ(res.fault_stats.windows_recovered, 1u);
}

}  // namespace
}  // namespace pp::fault
