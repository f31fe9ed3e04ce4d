#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>

#include "exp/builder.hpp"
#include "exp/digest.hpp"
#include "exp/scenario.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/observer.hpp"
#include "obs/timeline.hpp"
#include "proxy/policies.hpp"

namespace pp::obs {
namespace {

using sim::Time;

TEST(Counter, AccumulatesIncrements) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(TimeWeightedGauge, MeanIsTimeIntegralOverSpan) {
  TimeWeightedGauge g;
  g.set(Time::seconds(0), 2.0);
  g.set(Time::seconds(10), 6.0);
  g.finalize(Time::seconds(20));
  // 2.0 held for 10 s + 6.0 held for 10 s over a 20 s span.
  EXPECT_DOUBLE_EQ(g.mean(), 4.0);
  EXPECT_DOUBLE_EQ(g.min(), 2.0);
  EXPECT_DOUBLE_EQ(g.max(), 6.0);
  EXPECT_DOUBLE_EQ(g.last(), 6.0);
}

TEST(TimeWeightedGauge, DutyCycleOfSquareWave) {
  // Awake 1/4 of the time: 1 for 1 s, 0 for 3 s, repeated twice.
  TimeWeightedGauge g;
  for (int rep = 0; rep < 2; ++rep) {
    g.set(Time::seconds(rep * 4), 1.0);
    g.set(Time::seconds(rep * 4 + 1), 0.0);
  }
  g.finalize(Time::seconds(8));
  EXPECT_DOUBLE_EQ(g.mean(), 0.25);
}

TEST(TimeWeightedGauge, NeverMovedReportsHeldValue) {
  TimeWeightedGauge g;
  g.set(Time::ms(5), 3.5);
  EXPECT_DOUBLE_EQ(g.mean(), 3.5);
  g.finalize(Time::ms(5));  // zero span is still the held value
  EXPECT_DOUBLE_EQ(g.mean(), 3.5);
}

TEST(TimeWeightedGauge, FinalizeIsIdempotent) {
  TimeWeightedGauge g;
  g.set(Time::seconds(0), 1.0);
  g.set(Time::seconds(1), 3.0);
  g.finalize(Time::seconds(2));
  const double first = g.mean();
  g.finalize(Time::seconds(2));
  EXPECT_DOUBLE_EQ(g.mean(), first);
}

TEST(Histogram, BucketIndexIsLog2) {
  EXPECT_EQ(Histogram::bucket_index(0), 0);
  EXPECT_EQ(Histogram::bucket_index(1), 1);
  EXPECT_EQ(Histogram::bucket_index(2), 2);
  EXPECT_EQ(Histogram::bucket_index(3), 2);
  EXPECT_EQ(Histogram::bucket_index(4), 3);
  EXPECT_EQ(Histogram::bucket_index(7), 3);
  EXPECT_EQ(Histogram::bucket_index(8), 4);
  EXPECT_EQ(Histogram::bucket_index(1024), 11);
  EXPECT_EQ(Histogram::bucket_index(~std::uint64_t{0}), 64);
}

TEST(Histogram, BucketFloorInvertsIndex) {
  EXPECT_EQ(Histogram::bucket_floor(0), 0u);
  EXPECT_EQ(Histogram::bucket_floor(1), 1u);
  EXPECT_EQ(Histogram::bucket_floor(2), 2u);
  EXPECT_EQ(Histogram::bucket_floor(11), 1024u);
  for (std::uint64_t v : {0ull, 1ull, 2ull, 3ull, 1000ull, 123456789ull}) {
    const int i = Histogram::bucket_index(v);
    EXPECT_LE(Histogram::bucket_floor(i), v);
    if (i + 1 < Histogram::kBuckets) {
      EXPECT_GT(Histogram::bucket_floor(i + 1), v);
    }
  }
}

TEST(Histogram, ObserveTracksStats) {
  Histogram h;
  h.observe(0);
  h.observe(3);
  h.observe(3);
  h.observe(1024);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.sum(), 1030u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 1024u);
  EXPECT_DOUBLE_EQ(h.mean(), 257.5);
  EXPECT_EQ(h.buckets()[0], 1u);
  EXPECT_EQ(h.buckets()[2], 2u);
  EXPECT_EQ(h.buckets()[11], 1u);
}

TEST(Registry, HandlesAreStableAndShared) {
  MetricsRegistry reg;
  Counter* a = reg.counter("x");
  a->inc();
  // Creating other entries must not invalidate `a`; same name, same node.
  for (int i = 0; i < 100; ++i) reg.counter("c" + std::to_string(i));
  EXPECT_EQ(reg.counter("x"), a);
  EXPECT_EQ(reg.counter("x")->value(), 1u);
}

TEST(Registry, FindDoesNotCreate) {
  MetricsRegistry reg;
  EXPECT_EQ(reg.find_counter("nope"), nullptr);  // pp-lint: allow(obs-name-consistency): deliberately unregistered name
  EXPECT_EQ(reg.find_time_gauge("nope"), nullptr);  // pp-lint: allow(obs-name-consistency): deliberately unregistered name
  EXPECT_EQ(reg.find_histogram("nope"), nullptr);  // pp-lint: allow(obs-name-consistency): deliberately unregistered name
  reg.counter("yes");
  EXPECT_NE(reg.find_counter("yes"), nullptr);
  EXPECT_TRUE(reg.counters().size() == 1);
}

TEST(Registry, MergeAddsCountersAndHistogramsByName) {
  MetricsRegistry a, b;
  a.counter("x")->inc(2);
  b.counter("x")->inc(3);
  b.counter("y")->inc();
  a.histogram("h")->observe(4);
  b.histogram("h")->observe(1024);
  a.merge_from(b);
  EXPECT_EQ(a.counter("x")->value(), 5u);
  EXPECT_EQ(a.counter("y")->value(), 1u);
  EXPECT_EQ(a.histogram("h")->count(), 2u);
  EXPECT_EQ(b.counter("x")->value(), 3u);  // the source is untouched
}

TEST(Timeline, RecordsAndCapsAtCapacity) {
  Timeline tl;
  tl.set_capacity(3);
  for (int i = 0; i < 5; ++i) {
    tl.record(Time::ms(i), EventKind::Wake, 7, static_cast<std::uint64_t>(i));
  }
  EXPECT_EQ(tl.size(), 3u);
  EXPECT_EQ(tl.dropped(), 2u);
  EXPECT_EQ(tl.events()[2].value, 2u);
}

TEST(Timeline, EventKindNamesRoundTrip) {
  for (int i = 0; i <= static_cast<int>(EventKind::ClientLeave); ++i) {
    const auto k = static_cast<EventKind>(i);
    EventKind back{};
    ASSERT_TRUE(event_kind_from_string(to_string(k), back)) << to_string(k);
    EXPECT_EQ(back, k);
  }
  EventKind out{};
  EXPECT_FALSE(event_kind_from_string("no_such_kind", out));
}

TEST(Export, JsonlRoundTripPreservesEverything) {
  MetricsRegistry reg;
  reg.counter("proxy.schedules_sent")->inc(280);
  auto* twg = reg.time_gauge("proxy.queue_depth_bytes");
  twg->set(Time::seconds(0), 0.0);
  twg->set(Time::seconds(1), 3000.0);
  twg->set(Time::seconds(3), 500.0);
  reg.finalize(Time::seconds(4));
  auto* h = reg.histogram("proxy.burst_bytes");
  h->observe(0);
  h->observe(1400);
  h->observe(65536);

  Timeline tl;
  tl.record(Time::ms(500), EventKind::ScheduleBroadcast, 0, 4);
  tl.span(Time::ms(600), Time::ms(20), EventKind::Burst, 0xAC100001u, 14000);
  tl.record(Time::ms(900), EventKind::Sleep, 0xAC100002u);

  const Report out = snapshot(reg, &tl);
  std::stringstream ss;
  write_jsonl(ss, out);
  const Report in = read_jsonl(ss);

  ASSERT_EQ(in.counters.size(), 1u);
  EXPECT_EQ(in.counters[0].name, "proxy.schedules_sent");
  EXPECT_EQ(in.counters[0].value, 280u);

  const auto* g = in.find_time_gauge("proxy.queue_depth_bytes");
  ASSERT_NE(g, nullptr);
  EXPECT_DOUBLE_EQ(g->mean, twg->mean());
  EXPECT_DOUBLE_EQ(g->max, 3000.0);
  EXPECT_DOUBLE_EQ(g->last, 500.0);

  const auto* hist = in.find_histogram("proxy.burst_bytes");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->count, 3u);
  EXPECT_EQ(hist->sum, 66936u);
  EXPECT_EQ(hist->min, 0u);
  EXPECT_EQ(hist->max, 65536u);
  ASSERT_EQ(hist->buckets.size(), 3u);
  EXPECT_EQ(hist->buckets[0], (std::pair<std::uint64_t, std::uint64_t>{0, 1}));

  ASSERT_EQ(in.events.size(), 3u);
  EXPECT_EQ(in.events[0].kind, EventKind::ScheduleBroadcast);
  EXPECT_EQ(in.events[0].value, 4u);
  EXPECT_EQ(in.events[1].kind, EventKind::Burst);
  EXPECT_EQ(in.events[1].subject, 0xAC100001u);
  EXPECT_EQ(in.events[1].dur, Time::ms(20));
  EXPECT_EQ(in.events[1].value, 14000u);
  EXPECT_EQ(in.events[2].at, Time::ms(900));
}

TEST(Export, ReadRejectsMalformedInput) {
  std::stringstream ss{"{\"type\":\"counter\",\"value\":1}\n"};
  EXPECT_THROW(read_jsonl(ss), std::runtime_error);
  std::stringstream garbage{"not json at all\n"};
  EXPECT_THROW(read_jsonl(garbage), std::runtime_error);
}

TEST(Export, CsvHasHeaderAndRows) {
  MetricsRegistry reg;
  reg.counter("a.count")->inc(7);
  auto* twg = reg.time_gauge("b.depth");
  twg->set(Time::seconds(0), 1.0);
  reg.finalize(Time::seconds(1));
  Timeline tl;
  tl.record(Time::ms(1), EventKind::Wake, 0xAC100001u);

  const Report rep = snapshot(reg, &tl);
  std::stringstream metrics;
  write_metrics_csv(metrics, rep);
  const std::string m = metrics.str();
  EXPECT_NE(m.find("type,name,value,mean,min,max,last,count,sum"),
            std::string::npos);
  EXPECT_NE(m.find("counter,a.count,7,"), std::string::npos);
  EXPECT_NE(m.find("time_gauge,b.depth,"), std::string::npos);

  std::stringstream timeline;
  write_timeline_csv(timeline, rep);
  const std::string t = timeline.str();
  EXPECT_NE(t.find("t_ns,dur_ns,kind,subject,value"), std::string::npos);
  EXPECT_NE(t.find("wake,172.16.0.1,"), std::string::npos);
}

TEST(Export, SubjectStrRendersDottedQuadOrDash) {
  EXPECT_EQ(subject_str(0), "-");
  EXPECT_EQ(subject_str(0xAC100001u), "172.16.0.1");
}

// The retained timeline of a run with churn, a deep fade and an AP stall
// obeys what the radios did: each client's power records alternate Sleep,
// Wake, Sleep, ... (clients boot awake, and a daemon only records a state
// change), and no record lies past the horizon.
TEST(ObsIntegration, RetainedTimelineAlternatesSleepWakeWithinHorizon) {
  exp::ScenarioBuilder b;
  b.video(3, 1).web(1).ftp(1).duration_s(14.0).keep_obs();
  b.fault_spec()
      .fade(exp::testbed_client_ip(0), Time::ms(3000), Time::ms(1500))
      .ap_stall(Time::ms(6000), Time::ms(700))
      .churn_storm(Time::seconds(2.0), Time::seconds(10.0), 0.4);
  const auto res = exp::run_scenario(b.build());
  ASSERT_NE(res.obs, nullptr);
  ASSERT_EQ(res.obs->timeline.dropped(), 0u);

  std::map<std::uint32_t, EventKind> last;  // client -> last power record
  std::size_t power_records = 0;
  for (const TimelineEvent& e : res.obs->timeline.events()) {
    EXPECT_GE(e.dur, Time::zero()) << to_string(e.kind);
    EXPECT_LE(e.at + e.dur, res.horizon) << to_string(e.kind);
    if (e.kind != EventKind::Sleep && e.kind != EventKind::Wake) continue;
    ++power_records;
    const auto it = last.find(e.subject);
    const EventKind expected = it == last.end() || it->second == EventKind::Wake
                                   ? EventKind::Sleep
                                   : EventKind::Wake;
    EXPECT_EQ(e.kind, expected)
        << subject_str(e.subject) << " at " << e.at.to_seconds();
    last[e.subject] = e.kind;
  }
  EXPECT_EQ(last.size(), res.clients.size());
  EXPECT_GT(power_records, 100u);
  EXPECT_GT(res.proxy_stats.leaves, 0u);  // the storm took clients away
}

// End-to-end: a short scenario populates the registry with the metrics the
// report tooling depends on, and they survive a JSONL round trip.
TEST(ObsIntegration, ScenarioExportsTopLineMetrics) {
  const auto cfg = exp::ScenarioBuilder{}
                       .video(1, 0)
                       .web(1)
                       .policy(exp::IntervalPolicy::Fixed500)
                       .duration_s(20.0)
                       .keep_obs()
                       .build();
  const auto res = exp::run_scenario(cfg);
  ASSERT_NE(res.obs, nullptr);

  const Report rep = snapshot(res.obs->metrics, &res.obs->timeline);
  std::stringstream ss;
  write_jsonl(ss, rep);
  const Report back = read_jsonl(ss);

  // Schedule broadcast count matches the proxy's own stats.
  const auto* sched = back.find_counter("proxy.schedules_sent");
  ASSERT_NE(sched, nullptr);
  EXPECT_EQ(sched->value, res.proxy_stats.schedules_sent);
  EXPECT_GT(sched->value, 30u);  // 20 s at 500 ms

  // Time-weighted proxy queue depth (mean/max).
  const auto* depth = back.find_time_gauge("proxy.queue_depth_bytes");
  ASSERT_NE(depth, nullptr);
  EXPECT_GE(depth->max, depth->mean);
  EXPECT_GT(depth->max, 0.0);

  // Per-client sleep duty cycle: awake gauge in (0, 1).
  for (int i = 0; i < 2; ++i) {
    const std::string name =
        "client." + exp::testbed_client_ip(i).str() + ".awake";
    const auto* awake = back.find_time_gauge(name);
    ASSERT_NE(awake, nullptr) << name;
    EXPECT_GT(awake->mean, 0.0);
    EXPECT_LT(awake->mean, 1.0);  // it slept at least some of the time
  }

  // Burst-duration histogram.
  const auto* bursts = back.find_histogram("proxy.burst_duration_us");
  ASSERT_NE(bursts, nullptr);
  EXPECT_GT(bursts->count, 0u);

  // Drop counters exist (zero is fine in a calm run).
  EXPECT_NE(back.find_counter("proxy.queue_drops"), nullptr);
  EXPECT_NE(back.find_counter("ap.downlink_dropped"), nullptr);

  // Timeline saw schedule broadcasts, bursts, and sleep/wake transitions.
  std::uint64_t n_sched = 0, n_burst = 0, n_sleep = 0;
  for (const auto& e : back.events) {
    if (e.kind == EventKind::ScheduleBroadcast) ++n_sched;
    if (e.kind == EventKind::Burst) ++n_burst;
    if (e.kind == EventKind::Sleep) ++n_sleep;
  }
  EXPECT_EQ(n_sched, res.proxy_stats.schedules_sent);
  EXPECT_GT(n_burst, 0u);
  EXPECT_GT(n_sleep, 0u);
}

// A run with every counter-owning component live: a channel ladder, one
// deep fade, a churn storm, a web client (splices) and the opportunistic
// policy.
exp::ScenarioConfig all_components_config() {
  exp::ScenarioBuilder b = exp::ScenarioBuilder{}
                               .video(3, 1)
                               .video(2, 2)
                               .web(1)
                               .policy(exp::IntervalPolicy::Opportunistic500)
                               .duration_s(14.0)
                               .channel(channel::ChannelSpec::ladder(3, 0.85))
                               .keep_obs();
  b.fault_spec()
      .fade(exp::testbed_client_ip(0), Time::ms(3000), Time::ms(1500))
      .churn_storm(Time::seconds(2.0), Time::seconds(10.0), 0.25);
  return b.build();
}

// Every published counter is the sum of the stats its components kept: the
// registry holds no count of its own.
TEST(ObsIntegration, PublishedCountersEqualComponentStats) {
  exp::ScenarioRun run{all_components_config()};
  run.advance(run.horizon());
  const exp::ScenarioResult res = run.finish();
  ASSERT_NE(res.obs, nullptr);
  exp::Testbed& bed = run.bed();

  std::map<std::string, std::uint64_t> want;
  const sim::EventQueue::Stats& qs = bed.sim().queue_stats();
  want["sim.events.scheduled"] = qs.scheduled;
  want["sim.events.fired"] = qs.fired;
  want["sim.events.cancelled"] = qs.cancelled;
  want["sim.events.stale_pruned"] = qs.stale_pruned;
  want["sim.events.slab_slots"] = bed.sim().queue_slab_slots();

  want["net.frames_sent"] = bed.medium().frames_sent();
  want["net.frames_missed"] = bed.medium().frames_missed();
  want["net.bursts"] = bed.medium().bursts();
  want["ap.downlink_dropped"] = bed.access_point().downlink_dropped();
  want["ap.downlink_forwarded"] = bed.access_point().downlink_forwarded();

  const proxy::ProxyStats& ps = bed.proxy().stats();
  want["proxy.schedules_sent"] = ps.schedules_sent;
  want["proxy.queue_drops"] = ps.queue_drops;
  want["proxy.queued_packets"] = ps.queued_packets;
  want["proxy.empty_burst_markers"] = ps.empty_burst_markers;
  want["proxy.churn.joins"] = ps.joins;
  want["proxy.churn.leaves"] = ps.leaves;
  want["proxy.churn.renegotiations"] = ps.renegotiations;
  want["proxy.churn.drained_bytes"] = ps.churn_drained_bytes;
  want["proxy.churn.dropped_bytes"] = ps.churn_dropped_bytes;
  const transport::TcpStats tcp = bed.proxy().splice_tcp_stats();
  want["tcp.retransmissions"] = tcp.retransmissions;
  want["tcp.timeouts"] = tcp.timeouts;
  want["tcp.fast_retransmits"] = tcp.fast_retransmits;
  const auto& opp =
      dynamic_cast<const proxy::ChannelAwareOpportunisticScheduler&>(
          bed.proxy().scheduler());
  want["sched.policy.opp.deferrals"] = opp.deferrals();
  want["sched.policy.opp.forced"] = opp.forced();

  ASSERT_NE(bed.channel_model(), nullptr);
  const channel::ChannelStats& cs = bed.channel_model()->stats();
  want["channel.state.attempts"] = cs.attempts;
  want["channel.state.losses"] = cs.losses;
  want["channel.state.worse_entries"] = cs.worse_entries;
  ASSERT_NE(bed.fault_plan(), nullptr);
  const fault::FaultStats fs = bed.fault_plan()->stats();
  want["fault.windows_activated"] = fs.windows_activated;
  want["fault.windows_recovered"] = fs.windows_recovered;

  std::uint64_t missed = 0, resyncs = 0, retries = 0;
  for (int i = 0; i < bed.num_clients(); ++i) {
    const client::EnergyAwareClient& c = bed.client(i);
    missed += c.daemon_stats().schedules_missed;
    resyncs += c.daemon_stats().resyncs;
    ASSERT_NE(c.assoc(), nullptr);
    const client::AssocStats& as = c.assoc()->stats();
    retries += as.join_retries + as.leave_retries;
  }
  want["client.schedules_missed"] = missed;
  want["client.resyncs"] = resyncs;
  want["client.assoc.retries"] = retries;

  // The run exercised the paths that feed the counters.
  EXPECT_GT(ps.joins, 0u);
  EXPECT_GT(ps.splices_created, 0u);
  EXPECT_GT(opp.deferrals(), 0u);
  EXPECT_GT(cs.losses, 0u);
  EXPECT_GT(fs.windows_activated, 0u);

  std::map<std::string, std::uint64_t> got;
  for (const auto& [name, ctr] : res.obs->metrics.counters())
    got[name] = ctr.value();
  EXPECT_EQ(got, want);
}

// Churn counters exist only in runs that churned: a churn-free run
// publishes none, a churn-storm run publishes all five.
TEST(ObsIntegration, ChurnCountersPublishedOnlyWhenNonzero) {
  const auto churn_counters = [](const exp::ScenarioConfig& cfg) {
    const auto res = exp::run_scenario(cfg);
    std::map<std::string, std::uint64_t> out;
    for (const auto& [name, ctr] : res.obs->metrics.counters())
      if (name.rfind("proxy.churn.", 0) == 0) out[name] = ctr.value();
    return out;
  };

  exp::ScenarioConfig calm = all_components_config();
  calm.fault = {};
  EXPECT_TRUE(churn_counters(calm).empty());

  const auto storm = churn_counters(all_components_config());
  ASSERT_EQ(storm.size(), 5u);
  for (const char* name :
       {"proxy.churn.joins", "proxy.churn.leaves",
        "proxy.churn.renegotiations", "proxy.churn.drained_bytes",
        "proxy.churn.dropped_bytes"}) {
    ASSERT_EQ(storm.count(name), 1u) << name;
    EXPECT_GT(storm.at(name), 0u) << name;
  }
}

// A bare Testbed attaches no stream by default, yet its observer exists and
// receives every counter at publish_metrics.
TEST(ObsIntegration, ObserveFalseDetachesEverything) {
  exp::TestbedParams tp;
  tp.num_clients = 1;
  ASSERT_FALSE(tp.observe);
  exp::Testbed bed{tp, std::make_unique<proxy::FixedIntervalScheduler>(
                           sim::Time::ms(500))};
  ASSERT_NE(bed.observer(), nullptr);
  bed.start();
  bed.run_until(Time::seconds(2));  // runs fine with the observer detached
  bed.publish_metrics();
  const MetricsRegistry& m = *bed.metrics();
  EXPECT_FALSE(m.counters().empty());
  ASSERT_NE(m.find_counter("proxy.schedules_sent"), nullptr);
  EXPECT_EQ(m.find_counter("proxy.schedules_sent")->value(),
            bed.proxy().stats().schedules_sent);
  EXPECT_TRUE(m.time_gauges().empty());
  EXPECT_TRUE(m.histograms().empty());
  EXPECT_EQ(bed.timeline()->size() + bed.timeline()->dropped(), 0u);
}

// A default run publishes the same counters, with the same values and the
// same observer digest, as the run that keeps its observer; it attaches no
// time gauge, histogram or timeline.
TEST(ObsIntegration, DefaultRunPublishesCountersOnly) {
  const auto counters_of = [](const MetricsRegistry& m) {
    std::map<std::string, std::uint64_t> out;
    for (const auto& [name, ctr] : m.counters()) out[name] = ctr.value();
    return out;
  };
  exp::ScenarioConfig cfg = all_components_config();
  cfg.keep_obs = false;
  exp::ScenarioRun plain{cfg};
  plain.advance(plain.horizon());
  const exp::ScenarioResult pr = plain.finish();
  EXPECT_EQ(pr.obs, nullptr);
  const auto po = plain.bed().observer();
  ASSERT_NE(po, nullptr);
  EXPECT_TRUE(po->metrics.time_gauges().empty());
  EXPECT_TRUE(po->metrics.histograms().empty());
  EXPECT_EQ(po->timeline.size() + po->timeline.dropped(), 0u);

  cfg.keep_obs = true;
  const exp::ScenarioResult kr = exp::run_scenario(cfg);
  ASSERT_NE(kr.obs, nullptr);
  EXPECT_FALSE(kr.obs->metrics.time_gauges().empty());
  EXPECT_FALSE(kr.obs->metrics.histograms().empty());
  EXPECT_GT(kr.obs->timeline.size(), 0u);

  EXPECT_FALSE(po->metrics.counters().empty());
  EXPECT_EQ(counters_of(po->metrics), counters_of(kr.obs->metrics));
  EXPECT_EQ(exp::observer_digest(*po), exp::observer_digest(*kr.obs));
}

}  // namespace
}  // namespace pp::obs
