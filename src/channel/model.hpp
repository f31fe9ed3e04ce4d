// ChannelModel: the runtime half of the per-client channel subsystem.
//
// Owns every client's Markov quality chain plus the RNG that drives it.
// Each client's chain draws from an independent stream derived from the
// run seed and the client address, so one client's traffic volume can
// never shift another's draws and replay digests stay salt-invariant.
// Chains are rows of a flat vector, in the order the medium resolved them.
//
// The model is both a net::ChannelLossModel (install it on the medium to
// corrupt frames) and a ChannelObserver (schedulers query per-client
// quality).
#pragma once

#include <cstdint>
#include <vector>

#include "channel/observer.hpp"
#include "channel/spec.hpp"
#include "net/ip_index.hpp"
#include "net/wireless.hpp"
#include "obs/fwd.hpp"
#include "sim/rng.hpp"

namespace pp::channel {

struct ChannelStats {
  std::uint64_t attempts = 0;
  std::uint64_t losses = 0;
  std::uint64_t worse_entries = 0;  // transitions to a worse rung
};

class ChannelModel : public net::ChannelLossModel, public ChannelObserver {
 public:
  // The chain clock: every client's chain takes one transition step per
  // tick of sim time, caught up lazily at its next delivery attempt.
  static constexpr sim::Duration kTick = sim::Time::ms(20);

  // What one delivery attempt did to a client's channel.
  struct Attempt {
    bool lost = false;
    int state = 0;        // rung after the catch-up steps
    bool worsened = false;  // a catch-up step moved the chain to a worse rung
  };

  // Per-client streams derived from `run_seed`.
  ChannelModel(ChannelSpec spec, std::uint64_t run_seed);

  ChannelModel(const ChannelModel&) = delete;
  ChannelModel& operator=(const ChannelModel&) = delete;

  // net::ChannelLossModel: the row of `station`, created on first call.
  std::uint32_t row_of(net::Ipv4Addr station) override;

  // Catch `row`'s chain up with one transition draw per tick elapsed
  // before `now`, then draw corruption from the resulting rung (a loss
  // draw only when the rung's loss probability is positive).
  Attempt attempt(std::uint32_t row, sim::Time now);

  // net::ChannelLossModel: attempt() on the frame's channel row.
  bool corrupted(std::uint32_t row, sim::Time now) override {
    return attempt(row, now).lost;
  }

  // ChannelObserver: pure query, never draws or mutates.
  ChannelView view_of(net::Ipv4Addr client) const override;

  // Write the channel.state.* counters from stats().
  void publish(obs::MetricsRegistry& m) const;

  const ChannelStats& stats() const { return stats_; }

 private:
  struct Station {
    explicit Station(std::uint64_t seed) : rng{seed} {}
    sim::Rng rng;
    double ewma = 0.0;
    std::int64_t ticks_done = 0;  // chain ticks consumed
    int state = 0;  // every channel starts in the best rung
    bool attempted = false;  // view_of reports it only after an attempt
  };

  bool step(Station& st);

  ChannelSpec spec_;
  std::uint64_t seed_ = 0;
  std::vector<Station> stations_;  // by row
  std::vector<net::Ipv4Addr> ips_;  // by row: the index's key column
  net::IpIndex by_ip_;

  ChannelStats stats_;
};

}  // namespace pp::channel
