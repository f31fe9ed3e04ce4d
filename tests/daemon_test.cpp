#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "client/delay_comp.hpp"
#include "client/power_daemon.hpp"
#include "sim/simulator.hpp"

namespace pp::client {
namespace {

using sim::Time;

const net::Ipv4Addr kSelf = net::Ipv4Addr::octets(172, 16, 0, 1);
const net::Ipv4Addr kOther = net::Ipv4Addr::octets(172, 16, 0, 2);

std::shared_ptr<proxy::ScheduleMessage> schedule(
    sim::Time srp, sim::Duration interval,
    std::vector<proxy::ScheduleEntry> entries, bool reuse = false) {
  auto msg = std::make_shared<proxy::ScheduleMessage>();
  static std::uint64_t seq = 0;
  msg->seq_no = ++seq;
  msg->srp_time = srp;
  msg->interval = interval;
  msg->reuse_next = reuse;
  msg->entries = std::move(entries);
  return msg;
}

net::Packet data_pkt(bool marked, std::uint32_t payload = 1000) {
  net::Packet p;
  p.proto = net::Protocol::Udp;
  p.dst = kSelf;
  p.payload = payload;
  p.marked = marked;
  return p;
}

struct Harness {
  explicit Harness(DaemonConfig config = {})
      : cfg{config}, daemon{sim, kSelf, cfg, [this](bool awake) {
                 transitions.emplace_back(sim.now(), awake);
               }} {
    daemon.start();
  }
  // Deliver a schedule at absolute time t (only if the daemon is awake,
  // mirroring the radio).
  void schedule_at(sim::Time t, std::shared_ptr<proxy::ScheduleMessage> msg) {
    sim.at(t, [this, msg] {
      if (daemon.awake()) daemon.on_schedule(msg);
    });
  }
  void data_at(sim::Time t, bool marked) {
    sim.at(t, [this, marked] {
      if (daemon.awake()) {
        auto p = data_pkt(marked);
        daemon.on_data(p);
        ++delivered;
      } else {
        ++missed;
      }
    });
  }
  bool awake_during(sim::Time t) const {
    bool awake = true;  // starts awake
    for (const auto& [when, a] : transitions) {
      if (when > t) break;
      awake = a;
    }
    return awake;
  }

  sim::Simulator sim;
  std::vector<std::pair<sim::Time, bool>> transitions;
  int delivered = 0;
  int missed = 0;
  DaemonConfig cfg;  // the daemon references it
  PowerDaemon daemon;
};

TEST(PowerDaemon, StartsAwakeAwaitingSchedule) {
  Harness h;
  EXPECT_TRUE(h.daemon.awake());
}

TEST(PowerDaemon, SleepsAfterNoEntryScheduleUntilNextSrp) {
  Harness h;
  h.schedule_at(Time::ms(500), schedule(Time::ms(500), Time::ms(500), {}));
  h.sim.run_until(Time::ms(700));
  EXPECT_FALSE(h.daemon.awake());
  // Wakes early (6 ms default) before the next schedule at 1000 ms.
  h.sim.run_until(Time::ms(995));
  EXPECT_TRUE(h.daemon.awake());
}

TEST(PowerDaemon, AdaptiveWakeAnchorsOnArrival) {
  Harness h;
  // Schedule reaches the client 3 ms late (AP delay).
  h.schedule_at(Time::ms(503), schedule(Time::ms(500), Time::ms(500), {}));
  h.sim.run();
  // Expected next arrival 1003 ms; wake at 997 ms (early = 6 ms).
  EXPECT_FALSE(h.awake_during(Time::ms(996)));
  EXPECT_TRUE(h.awake_during(Time::ms(998)));
}

TEST(PowerDaemon, WakesForOwnBurstAndSleepsOnMark) {
  Harness h;
  h.schedule_at(
      Time::ms(500),
      schedule(Time::ms(500), Time::ms(500),
               {{kSelf, Time::ms(100), Time::ms(50), proxy::SlotKind::Any}}));
  h.sim.run_until(Time::ms(550));
  // Sleeping between schedule and RP (offset 100 ms).
  EXPECT_FALSE(h.daemon.awake());
  h.sim.run_until(Time::ms(596));
  EXPECT_TRUE(h.daemon.awake());  // woke 6 ms early for RP at 600
  h.data_at(Time::ms(602), false);
  h.data_at(Time::ms(605), true);  // marked
  h.sim.run_until(Time::ms(610));
  EXPECT_FALSE(h.daemon.awake());  // slept on the mark
  EXPECT_EQ(h.daemon.stats().bursts_completed, 1u);
  EXPECT_EQ(h.delivered, 2);
}

TEST(PowerDaemon, OtherClientsEntriesIgnored) {
  Harness h;
  h.schedule_at(
      Time::ms(500),
      schedule(Time::ms(500), Time::ms(500),
               {{kOther, Time::ms(100), Time::ms(50), proxy::SlotKind::Any}}));
  h.sim.run_until(Time::ms(700));
  EXPECT_FALSE(h.daemon.awake());  // no reason to wake at kOther's RP
  EXPECT_FALSE(h.awake_during(Time::ms(600)));
}

TEST(PowerDaemon, MissedScheduleKeepsClientAwake) {
  Harness h;
  h.schedule_at(Time::ms(500), schedule(Time::ms(500), Time::ms(500), {}));
  // The schedule at 1000 ms never arrives; the next one comes at 2000 ms.
  h.sim.run_until(Time::ms(1900));
  EXPECT_EQ(h.daemon.stats().schedules_missed, 1u);
  EXPECT_TRUE(h.daemon.awake());  // high power until the next schedule
  h.schedule_at(Time::ms(2000), schedule(Time::ms(2000), Time::ms(500), {}));
  h.sim.run_until(Time::ms(2100));
  // Awake from the grace expiry (~1036 ms) until 2000 ms.
  EXPECT_GT(h.daemon.stats().missed_wait, Time::ms(800));
}

TEST(PowerDaemon, ResyncsAfterMiss) {
  Harness h;
  h.schedule_at(Time::ms(500), schedule(Time::ms(500), Time::ms(500), {}));
  // Miss at 1000; next schedule arrives at 1500 while we are awake.
  h.schedule_at(Time::ms(1500), schedule(Time::ms(1500), Time::ms(500), {}));
  h.sim.run_until(Time::ms(1600));
  EXPECT_FALSE(h.daemon.awake());  // back on schedule, sleeping
}

TEST(PowerDaemon, DataBeforeScheduleIsAccepted) {
  // Rule (2) of Section 3.2.2.
  Harness h;
  h.schedule_at(Time::ms(500), schedule(Time::ms(500), Time::ms(500), {}));
  // Awake for the 1000 ms schedule; burst data arrives slightly before it.
  h.data_at(Time::ms(998), false);
  h.schedule_at(
      Time::ms(1000),
      schedule(Time::ms(1000), Time::ms(500),
               {{kSelf, Time::ms(4), Time::ms(20), proxy::SlotKind::Any}}));
  h.sim.run_until(Time::ms(999));
  EXPECT_EQ(h.delivered, 1);
}

TEST(PowerDaemon, ScheduleDuringBurstDeferredUntilMark) {
  // Rule (1) of Section 3.2.2.
  DaemonConfig cfg;
  Harness h{cfg};
  h.schedule_at(
      Time::ms(500),
      schedule(Time::ms(500), Time::ms(500),
               {{kSelf, Time::ms(480), Time::ms(40), proxy::SlotKind::Any}}));
  // Burst starts at ~980 and is still unmarked when the next schedule
  // (1000 ms) arrives; the mark comes at 1010.
  h.data_at(Time::ms(985), false);
  auto next = schedule(Time::ms(1000), Time::ms(500),
                       {{kSelf, Time::ms(100), Time::ms(20),
                         proxy::SlotKind::Any}});
  h.schedule_at(Time::ms(1000), next);
  h.data_at(Time::ms(1010), true);
  h.sim.run_until(Time::ms(1050));
  // After the mark, the deferred schedule applies: sleep, then wake for
  // the RP at ~1100.
  EXPECT_FALSE(h.daemon.awake());
  h.sim.run_until(Time::ms(1097));
  EXPECT_TRUE(h.daemon.awake());
}

TEST(PowerDaemon, SecondScheduleEndsBurstWhenMarkLost) {
  Harness h;
  h.schedule_at(
      Time::ms(500),
      schedule(Time::ms(500), Time::ms(500),
               {{kSelf, Time::ms(480), Time::ms(40), proxy::SlotKind::Any}}));
  h.data_at(Time::ms(985), false);  // burst begins; mark is lost
  h.schedule_at(Time::ms(1000), schedule(Time::ms(1000), Time::ms(500), {}));
  h.schedule_at(Time::ms(1500), schedule(Time::ms(1500), Time::ms(500), {}));
  h.sim.run_until(Time::ms(1400));
  EXPECT_TRUE(h.daemon.awake());  // still waiting: one deferred schedule
  h.sim.run_until(Time::ms(1600));
  // The second schedule forcibly ended the burst and applied.
  EXPECT_FALSE(h.daemon.awake());
}

TEST(PowerDaemon, ReuseFlagSkipsScheduleWake) {
  DaemonConfig cfg;
  Harness h{cfg};
  // Static schedule: reuse set, own entry at 50 ms offset each interval.
  h.schedule_at(
      Time::ms(500),
      schedule(Time::ms(500), Time::ms(100),
               {{kSelf, Time::ms(50), Time::ms(10), proxy::SlotKind::Any}},
               /*reuse=*/true));
  // Bursts with marks at each RP (550, 650, 750...).
  for (int k = 0; k < 5; ++k)
    h.data_at(Time::ms(552 + 100 * k), true);
  h.sim.run_until(Time::ms(1000));
  EXPECT_EQ(h.delivered, 5);
  // Without reuse the daemon would wake at 594 for the 600 ms schedule;
  // with reuse it sleeps straight through to the 644 wake for RP at 650.
  EXPECT_FALSE(h.awake_during(Time::ms(620)));
  EXPECT_EQ(h.daemon.stats().schedules_received, 1u);
}

TEST(PowerDaemon, SlotEndFallbackSleepsWithoutMark) {
  DaemonConfig cfg;
  cfg.sleep_at_slot_end = true;
  Harness h{cfg};
  h.schedule_at(
      Time::ms(500),
      schedule(Time::ms(500), Time::ms(500),
               {{kSelf, Time::ms(100), Time::ms(40), proxy::SlotKind::Any}}));
  // No data at all in the slot (600-640).
  h.sim.run_until(Time::ms(660));
  EXPECT_FALSE(h.daemon.awake());
  EXPECT_EQ(h.daemon.stats().slot_end_sleeps, 1u);
}

TEST(PowerDaemon, ForceAwakeWakesAndResyncs) {
  Harness h;
  h.schedule_at(Time::ms(500), schedule(Time::ms(500), Time::ms(500), {}));
  h.sim.run_until(Time::ms(700));
  EXPECT_FALSE(h.daemon.awake());
  h.sim.at(Time::ms(750), [&] { h.daemon.force_awake(); });
  h.sim.run_until(Time::ms(760));
  EXPECT_TRUE(h.daemon.awake());
  EXPECT_EQ(h.daemon.stats().forced_wakes, 1u);
  // Still wakes correctly for the next schedule.
  h.schedule_at(Time::ms(1002), schedule(Time::ms(1000), Time::ms(500), {}));
  h.sim.run_until(Time::ms(1100));
  EXPECT_FALSE(h.daemon.awake());
}

TEST(PowerDaemon, ActivityHoldDefersSleep) {
  DaemonConfig cfg;
  cfg.activity_hold = Time::ms(50);
  Harness h{cfg};
  h.schedule_at(Time::ms(500), schedule(Time::ms(500), Time::ms(500), {}));
  h.sim.run_until(Time::ms(600));
  EXPECT_FALSE(h.daemon.awake());
  h.sim.at(Time::ms(700), [&] { h.daemon.force_awake(); });
  // A schedule with no entry for us arrives during the hold: the daemon
  // must NOT sleep before the hold expires (a response may be in flight).
  h.sim.run_until(Time::ms(730));
  EXPECT_TRUE(h.daemon.awake());
  h.sim.run_until(Time::ms(760));
  EXPECT_FALSE(h.daemon.awake());  // hold expired at 750 -> sleep resumed
}

TEST(PowerDaemon, PureControlPacketsDoNotDisturbState) {
  Harness h;
  h.schedule_at(Time::ms(500), schedule(Time::ms(500), Time::ms(500), {}));
  h.sim.at(Time::ms(500), [&] {
    net::Packet ack;
    ack.proto = net::Protocol::Tcp;
    ack.payload = 0;
    if (h.daemon.awake()) h.daemon.on_data(ack);
  });
  h.sim.run_until(Time::ms(700));
  // The zero-payload segment did not flip us into Receiving; the no-entry
  // schedule put us to sleep normally.
  EXPECT_FALSE(h.daemon.awake());
  EXPECT_EQ(h.daemon.stats().data_packets, 0u);
}

TEST(PowerDaemon, EarlyWaitAccumulates) {
  Harness h;
  h.schedule_at(Time::ms(500), schedule(Time::ms(500), Time::ms(500), {}));
  h.schedule_at(Time::ms(1000), schedule(Time::ms(1000), Time::ms(500), {}));
  h.sim.run_until(Time::ms(1100));
  // Woke at 994 for the 1000 ms arrival: ~6 ms of early wait.
  EXPECT_GE(h.daemon.stats().early_wait, Time::ms(5));
  EXPECT_LE(h.daemon.stats().early_wait, Time::ms(8));
}

TEST(PowerDaemon, MultipleEntriesWakeSequentially) {
  Harness h;
  h.schedule_at(
      Time::ms(500),
      schedule(Time::ms(500), Time::ms(500),
               {{kSelf, Time::ms(50), Time::ms(20), proxy::SlotKind::Any},
                {kSelf, Time::ms(300), Time::ms(20), proxy::SlotKind::Any}}));
  h.data_at(Time::ms(552), true);  // first burst marked
  h.data_at(Time::ms(802), true);  // second burst marked
  h.sim.run_until(Time::ms(700));
  EXPECT_FALSE(h.daemon.awake());  // asleep between the two bursts
  h.sim.run_until(Time::ms(796));
  EXPECT_TRUE(h.daemon.awake());  // awake for the second RP
  h.sim.run_until(Time::ms(810));
  EXPECT_FALSE(h.daemon.awake());
  EXPECT_EQ(h.delivered, 2);
}

TEST(PowerDaemon, CompensationModesDifferInAnchor) {
  DelayCompensation adaptive{CompensationMode::Adaptive, Time::ms(6)};
  DelayCompensation proxy_clock{CompensationMode::ProxyClock, Time::ms(6)};
  DelayCompensation none{CompensationMode::None, Time::ms(6)};
  const sim::Time arrival = Time::ms(503);
  const sim::Time stamp = Time::ms(500);
  EXPECT_EQ(adaptive.wake_time(arrival, stamp, Time::ms(100)), Time::ms(597));
  EXPECT_EQ(proxy_clock.wake_time(arrival, stamp, Time::ms(100)),
            Time::ms(594));
  EXPECT_EQ(none.wake_time(arrival, stamp, Time::ms(100)), Time::ms(603));
}

// Sweep: smaller early-transition amounts wake later.
class EarlySweep : public ::testing::TestWithParam<int> {};

TEST_P(EarlySweep, WakeTimeShiftsWithEarlyAmount) {
  DaemonConfig cfg;
  cfg.comp.early = Time::ms(GetParam());
  Harness h{cfg};
  h.schedule_at(Time::ms(500), schedule(Time::ms(500), Time::ms(500), {}));
  h.sim.run();
  // Find the wake transition for the 1000 ms schedule.
  sim::Time wake;
  for (const auto& [when, awake] : h.transitions)
    if (awake && when > Time::ms(600)) wake = when;
  EXPECT_EQ(wake, Time::ms(1000 - GetParam()));
}

INSTANTIATE_TEST_SUITE_P(EarlyAmounts, EarlySweep,
                         ::testing::Values(0, 2, 4, 6, 8, 10));

// -- Graceful degradation: k-repeat dedupe and miss escalation ---------------------

TEST(PowerDaemon, RepeatedScheduleCopyIsDeduped) {
  Harness h;
  auto orig = schedule(Time::ms(500), Time::ms(500), {});
  auto copy = std::make_shared<proxy::ScheduleMessage>(*orig);
  copy->repeat_offset = Time::ms(3);
  h.schedule_at(Time::ms(500), orig);
  // Deliver the k-repeat copy directly: the radio may well be awake for it
  // (first-slot clients are), and the state machine must shrug it off.
  h.sim.at(Time::ms(503), [&, copy] { h.daemon.on_schedule(copy); });
  h.sim.run_until(Time::ms(996));
  EXPECT_EQ(h.daemon.stats().schedules_received, 1u);
  EXPECT_EQ(h.daemon.stats().repeats_deduped, 1u);
  // The duplicate did not wake or re-anchor anything: next wake is still
  // ~994 ms for the 1000 ms arrival.
  EXPECT_FALSE(h.awake_during(Time::ms(992)));
  EXPECT_TRUE(h.awake_during(Time::ms(995)));
}

TEST(PowerDaemon, RepeatCopyAnchorsOnOriginalArrivalTime) {
  Harness h;
  // The original broadcast is lost; only the second transmission (3 ms
  // later) gets through.  Delay compensation must anchor on where the
  // original would have arrived, not on the repeat's own lagged arrival.
  auto copy = schedule(Time::ms(500), Time::ms(500), {});
  copy->repeat_offset = Time::ms(3);
  h.schedule_at(Time::ms(503), copy);
  h.sim.run();
  // Anchor 500 ms -> next arrival expected 1000 ms -> wake at 994 ms.
  // (Without the offset it would anchor at 503 and wake at 997.)
  EXPECT_FALSE(h.awake_during(Time::ms(992)));
  EXPECT_TRUE(h.awake_during(Time::ms(995)));
}

TEST(PowerDaemon, EscalationBacksOffAndSleepsThroughDeepOutage) {
  DaemonConfig cfg;
  cfg.escalation.enabled = true;
  cfg.escalation.awake_misses = 1;
  cfg.escalation.backoff = 2.0;
  cfg.escalation.max_grace = Time::ms(240);
  Harness h{cfg};
  h.schedule_at(Time::ms(500), schedule(Time::ms(500), Time::ms(500), {}));
  // Every subsequent schedule is lost until 3000 ms.
  h.sim.run_until(Time::ms(1100));
  // Miss #1 at 1030 (grace 30 ms): stay awake, grace widened to 60 ms and
  // re-armed on the next expected SRP (1500 + 60).
  EXPECT_EQ(h.daemon.stats().schedules_missed, 1u);
  EXPECT_EQ(h.daemon.stats().first_misses, 1u);
  EXPECT_TRUE(h.daemon.awake());

  h.sim.run_until(Time::ms(1700));
  // Miss #2 at 1560: beyond awake_misses, so the daemon sleeps through to
  // just before the next expected SRP (wakes at 1994).
  EXPECT_EQ(h.daemon.stats().schedules_missed, 2u);
  EXPECT_EQ(h.daemon.stats().repeat_misses, 1u);
  EXPECT_EQ(h.daemon.stats().escalated_sleeps, 1u);
  EXPECT_FALSE(h.daemon.awake());

  h.sim.run_until(Time::ms(2000));
  EXPECT_TRUE(h.daemon.awake());  // up for the 2000 ms SRP attempt
  h.sim.run_until(Time::ms(2200));
  // Miss #3 at 2120 (grace now 120 ms): escalated sleep again.
  EXPECT_EQ(h.daemon.stats().schedules_missed, 3u);
  EXPECT_EQ(h.daemon.stats().escalated_sleeps, 2u);
  EXPECT_FALSE(h.daemon.awake());

  // Miss #4 at 2740 (grace capped at 240 ms), then the 3000 ms schedule
  // arrives while the daemon is awake for its SRP attempt (woke at 2994).
  h.schedule_at(Time::ms(3000), schedule(Time::ms(3000), Time::ms(500), {}));
  h.sim.run_until(Time::ms(3100));
  EXPECT_EQ(h.daemon.stats().schedules_missed, 4u);
  EXPECT_EQ(h.daemon.stats().resyncs, 1u);
  EXPECT_FALSE(h.daemon.awake());  // back on schedule, sleeping
  // Grace reset on resync: a subsequent clean interval behaves normally.
  h.schedule_at(Time::ms(3500), schedule(Time::ms(3500), Time::ms(500), {}));
  h.sim.run_until(Time::ms(3600));
  EXPECT_EQ(h.daemon.stats().schedules_missed, 4u);
}

TEST(PowerDaemon, EscalationDisabledStaysAwakeAllOutage) {
  Harness h;  // escalation off by default (paper behavior)
  h.schedule_at(Time::ms(500), schedule(Time::ms(500), Time::ms(500), {}));
  h.sim.run_until(Time::ms(2900));
  // One counted miss, then awake for the whole outage.
  EXPECT_EQ(h.daemon.stats().schedules_missed, 1u);
  EXPECT_EQ(h.daemon.stats().escalated_sleeps, 0u);
  EXPECT_TRUE(h.daemon.awake());
  EXPECT_TRUE(h.awake_during(Time::ms(1800)));
  EXPECT_TRUE(h.awake_during(Time::ms(2600)));
}

TEST(PowerDaemon, CoastBoundForcesReanchorAfterRepeatedBlindCoasts) {
  // A client that keeps missing schedules but catching its burst data
  // re-anchors by estimate alone each interval ("blind coast").  If the
  // anchor is systematically stale, that loop never hears a broadcast and
  // coasts desynchronized forever; max_blind_coasts (default 2) must cut
  // the streak and hold the radio awake until a real schedule re-anchors.
  Harness h;
  h.schedule_at(
      Time::ms(500),
      schedule(Time::ms(500), Time::ms(500),
               {{kSelf, Time::ms(100), Time::ms(50), proxy::SlotKind::Any}}));
  h.data_at(Time::ms(602), false);
  h.data_at(Time::ms(605), true);
  // SRPs at 1000/1500/2000 are lost, but the data bursts still flow at the
  // (stale) slot offsets the daemon estimates.
  for (int i = 1; i <= 3; ++i) {
    h.data_at(Time::ms(1000 * 1 + 500 * (i - 1) + 102), false);
    h.data_at(Time::ms(1000 * 1 + 500 * (i - 1) + 105), true);
  }
  h.schedule_at(Time::ms(2500), schedule(Time::ms(2500), Time::ms(500), {}));
  h.sim.run_until(Time::ms(2600));
  // Coasts #1 and #2 slept between mark and the next estimated SRP...
  EXPECT_FALSE(h.awake_during(Time::ms(1300)));
  EXPECT_FALSE(h.awake_during(Time::ms(1800)));
  // ...but the third mark hit the coast bound: awake until the 2500
  // broadcast instead of blindly sleeping on the suspect anchor.
  EXPECT_TRUE(h.awake_during(Time::ms(2200)));
  EXPECT_TRUE(h.awake_during(Time::ms(2450)));
  EXPECT_EQ(h.daemon.stats().coast_breaks, 1u);
  EXPECT_EQ(h.daemon.stats().schedules_missed, 3u);
  EXPECT_EQ(h.daemon.stats().schedules_received, 2u);
  EXPECT_EQ(h.delivered, 8);  // every burst was caught, coasting or not
  h.sim.run_until(Time::ms(2900));
  EXPECT_FALSE(h.awake_during(Time::ms(2800)));  // re-anchored, sleeping
}

TEST(PowerDaemon, ResyncRecordsOutageDepth) {
  DaemonConfig cfg;
  cfg.escalation.enabled = true;
  Harness h{cfg};
  h.schedule_at(Time::ms(500), schedule(Time::ms(500), Time::ms(500), {}));
  h.schedule_at(Time::ms(2500), schedule(Time::ms(2500), Time::ms(500), {}));
  h.sim.run_until(Time::ms(2600));
  // SRPs at 1000/1500/2000 lost; the 2500 one resynchronizes.
  EXPECT_EQ(h.daemon.stats().resyncs, 1u);
  EXPECT_GE(h.daemon.stats().schedules_missed, 2u);
  EXPECT_EQ(h.daemon.stats().first_misses, 1u);
  EXPECT_GE(h.daemon.stats().repeat_misses, 1u);
  EXPECT_GT(h.daemon.stats().missed_wait, Time::zero());
}

}  // namespace
}  // namespace pp::client
