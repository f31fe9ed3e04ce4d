// Channel subsystem: draw discipline, stream isolation (on the model and
// on the wireless medium), and the observer surface.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "channel/model.hpp"
#include "net/wireless.hpp"
#include "sim/simulator.hpp"

namespace pp::channel {
namespace {

net::Ipv4Addr client_a() { return net::Ipv4Addr::octets(172, 16, 0, 1); }
net::Ipv4Addr client_b() { return net::Ipv4Addr::octets(172, 16, 0, 2); }

// The i-th attempt time of the draw-sequence tests: a few attempts per
// chain tick, so both the transition and the loss draws are exercised.
sim::Time at(int i) { return sim::Time::ms(7 * i); }

// Per-client streams: one client's attempt volume must not shift another
// client's draw sequence.  B alone vs B interleaved with heavy A traffic
// must see the identical loss sequence.
TEST(ChannelModel, PerClientStreamsAreIndependent) {
  const ChannelSpec spec = ChannelSpec::ladder(3, 0.8);
  const std::uint64_t seed = 7;

  ChannelModel solo{spec, seed};
  const std::uint32_t solo_b = solo.row_of(client_b());
  std::vector<bool> solo_losses;
  for (int i = 0; i < 5000; ++i) {
    solo_losses.push_back(solo.attempt(solo_b, at(i)).lost);
  }

  ChannelModel mixed{spec, seed};
  const std::uint32_t mixed_a = mixed.row_of(client_a());
  const std::uint32_t mixed_b = mixed.row_of(client_b());
  std::vector<bool> mixed_losses;
  for (int i = 0; i < 5000; ++i) {
    mixed.attempt(mixed_a, at(i));
    mixed.attempt(mixed_a, at(i));
    mixed_losses.push_back(mixed.attempt(mixed_b, at(i)).lost);
  }

  EXPECT_EQ(solo_losses, mixed_losses);
}

// Same spec + same seed => bit-identical behaviour (the per-client streams
// are pure functions of the run seed).
TEST(ChannelModel, SameSeedReproduces) {
  const ChannelSpec spec = ChannelSpec::ladder(4, 0.5);
  ChannelModel m1{spec, 99991};
  ChannelModel m2{spec, 99991};
  for (int i = 0; i < 3000; ++i) {
    const auto a1 = m1.attempt(m1.row_of(client_a()), at(i));
    const auto a2 = m2.attempt(m2.row_of(client_a()), at(i));
    ASSERT_EQ(a1.lost, a2.lost);
    ASSERT_EQ(a1.state, a2.state);
  }
}

TEST(ChannelModel, LadderStateStaysInBounds) {
  const ChannelSpec spec = ChannelSpec::ladder(3, 0.9);
  ChannelModel model{spec, 13};
  for (int i = 0; i < 50000; ++i) {
    const auto a = model.attempt(model.row_of(client_a()), at(i));
    ASSERT_GE(a.state, 0);
    ASSERT_LT(a.state, spec.num_states());
  }
  const ChannelView v = model.view_of(client_a());
  EXPECT_TRUE(v.known);
  EXPECT_GE(v.loss_ewma, 0.0);
  EXPECT_LE(v.loss_ewma, 1.0);
  EXPECT_GT(model.stats().attempts, 0u);
}

TEST(ChannelModel, ViewOfUnknownClientIsBestRungNominal) {
  const ChannelSpec spec = ChannelSpec::ladder(3, 0.5);
  ChannelModel model{spec, 1};
  const ChannelView v = model.view_of(client_a());
  EXPECT_FALSE(v.known);
  EXPECT_EQ(v.state, 0);
  EXPECT_EQ(v.num_states, 3);
  EXPECT_DOUBLE_EQ(v.goodput_bps, spec.rungs[0].goodput_bps);
  EXPECT_FALSE(v.bad());
}

TEST(ChannelModel, BadMeansWorstRung) {
  // Force the chain into the worst rung with a certain down-transition.
  ChannelSpec spec;
  spec.rungs = {ChannelRung{0.0, 1.0, 0.0, 4e6},
                ChannelRung{0.0, 0.0, 1.0, 1e6}};
  ChannelModel model{spec, 5};
  const auto a = model.attempt(model.row_of(client_a()), ChannelModel::kTick);
  EXPECT_EQ(a.state, 1);
  EXPECT_TRUE(a.lost);
  EXPECT_TRUE(a.worsened);
  const ChannelView v = model.view_of(client_a());
  EXPECT_TRUE(v.bad());
  // Certain loss drags goodput below nominal via the EWMA discount.
  EXPECT_LT(v.goodput_bps, spec.rungs[1].goodput_bps);
}

// Time-based stepping: the chain is caught up with one transition draw per
// elapsed 20 ms tick at each attempt, so a fade evolves in wall-clock time
// even while the client receives nothing.
TEST(ChannelModel, TickedChainCatchesUpWithElapsedTime) {
  ChannelSpec spec;
  // Certain one-way descent: each tick moves the chain one rung down.
  spec.rungs = {ChannelRung{0.0, 1.0, 0.0, 4e6},
                ChannelRung{0.0, 1.0, 0.0, 2e6},
                ChannelRung{0.0, 0.0, 0.0, 1e6}};
  ChannelModel model{spec, 3};
  // Two ticks elapsed by t=41ms: bottom of a 3-rung ladder.
  const std::uint32_t row = model.row_of(client_a());
  const auto a = model.attempt(row, sim::Time::ms(41));
  EXPECT_EQ(a.state, 2);
  EXPECT_TRUE(a.worsened);
  // No further ticks before t=59ms: state unchanged, no transition draws.
  const auto b = model.attempt(row, sim::Time::ms(59));
  EXPECT_EQ(b.state, 2);
  EXPECT_FALSE(b.worsened);
}

TEST(ChannelModel, TickedAttemptsAreDeterministic) {
  const ChannelSpec spec = ChannelSpec::ladder(3, 0.85);
  ChannelModel m1{spec, 99991};
  ChannelModel m2{spec, 99991};
  for (int i = 1; i <= 2000; ++i) {
    const auto a1 = m1.attempt(m1.row_of(client_a()), at(i));
    const auto a2 = m2.attempt(m2.row_of(client_a()), at(i));
    ASSERT_EQ(a1.lost, a2.lost);
    ASSERT_EQ(a1.state, a2.state);
  }
}

// The observer surface is pure: querying never changes subsequent draws.
TEST(ChannelModel, ViewOfNeverPerturbsDraws) {
  const ChannelSpec spec = ChannelSpec::ladder(3, 0.7);
  ChannelModel quiet{spec, 23};
  ChannelModel queried{spec, 23};
  for (int i = 0; i < 2000; ++i) {
    const auto a1 = quiet.attempt(quiet.row_of(client_a()), at(i));
    for (int q = 0; q < 3; ++q) (void)queried.view_of(client_a());
    const auto a2 = queried.attempt(queried.row_of(client_a()), at(i));
    ASSERT_EQ(a1.lost, a2.lost);
    ASSERT_EQ(a1.state, a2.state);
  }
}

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

// Flat loss is per-client as well: on one medium with a one-rung spec,
// client B's delivered/missed sequence must come out the same whether or
// not client A receives frames in between.  A draw on a stream shared by
// all clients would shift B's draws by every frame A receives.
TEST(ChannelModel, FlatLossOnTheMediumIsPerClient) {
  const auto run = [](bool with_a) {
    sim::Simulator sim{11};
    net::WirelessMedium medium{sim};
    ChannelModel flat{ChannelSpec::flat(0.3), 11};
    medium.set_loss_model(&flat);
    Radio ap, a, b;
    const auto ap_id = medium.attach_access_point(ap);
    medium.attach_station(a, client_a());
    medium.attach_station(b, client_b());
    const auto downlink_to = [](net::Ipv4Addr dst) {
      net::Packet p;
      p.dst = dst;
      p.payload = 500;
      return p;
    };
    for (int i = 0; i < 500; ++i) {
      sim.at(sim::Time::ms(10 * i), [&, with_a] {
        if (with_a) medium.transmit(ap_id, downlink_to(client_a()));
        medium.transmit(ap_id, downlink_to(client_b()));
      });
    }
    sim.run();
    EXPECT_EQ(a.heard.size(), with_a ? 500u : 0u);
    return b.heard;
  };
  const std::vector<bool> alone = run(false);
  ASSERT_EQ(alone.size(), 500u);
  const auto delivered = std::count(alone.begin(), alone.end(), true);
  EXPECT_GT(delivered, 250);  // ~350 expected at 30% loss
  EXPECT_LT(delivered, 450);
  EXPECT_EQ(alone, run(true));
}

}  // namespace
}  // namespace pp::channel
