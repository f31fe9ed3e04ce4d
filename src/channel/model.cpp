#include "channel/model.hpp"

#include <cmath>
#include <utility>

#include "check/check.hpp"
#include "obs/metrics.hpp"

namespace pp::channel {

namespace {

// Stream tag folded into the run seed so channel draws are independent of
// the simulator's shared stream and of the churn stream (which has its own
// tag).  Changing this constant changes every channel-modeled run.
constexpr std::uint64_t kChannelStreamTag = 0xC4A77E10'5AD1E5CULL;
// Odd multiplier decorrelating per-client child seeds before splitmix64.
constexpr std::uint64_t kClientSeedMix = 0x9E3779B97F4A7C15ULL;

// The per-client child seed: each channel's stream is independent of the
// simulator's shared stream, of the other channels and of the churn stream.
std::uint64_t client_stream_seed(std::uint64_t run_seed, std::uint32_t raw_ip) {
  return (run_seed ^ kChannelStreamTag) +
         kClientSeedMix * (static_cast<std::uint64_t>(raw_ip) + 1);
}

}  // namespace

ChannelSpec ChannelSpec::flat(double p) {
  ChannelSpec s;
  if (p != 0) s.rungs.push_back(ChannelRung{/*p_up=*/0.0, /*p_down=*/0.0, p});
  return s;
}

ChannelSpec ChannelSpec::two_state(double p_good_bad, double p_bad_good,
                                   double loss_good, double loss_bad,
                                   double goodput_bps) {
  ChannelSpec s;
  s.rungs.push_back(
      ChannelRung{/*p_up=*/0.0, /*p_down=*/p_good_bad, loss_good, goodput_bps});
  s.rungs.push_back(ChannelRung{/*p_up=*/p_bad_good, /*p_down=*/0.0, loss_bad,
                                goodput_bps * 0.2});
  return s;
}

ChannelSpec ChannelSpec::ladder(int n, double burstiness,
                                double top_goodput_bps) {
  ChannelSpec s;
  s.rungs.reserve(static_cast<std::size_t>(n));
  // The ladder fades in wall-clock time (the model's chain tick), not per
  // attempt: a client that is not being served still sees its fade end,
  // which is the physical premise behind deferring bad-channel clients
  // (DESIGN.md §12.3).  Higher burstiness: degraded rungs are entered more
  // often and left more slowly (correlated fades), and the worst rung
  // loses nearly everything.  Exit rates put fades on the order of a
  // second — long enough to be a real fade, short enough that a
  // deadline-bounded deferral can outwait one.
  const double worst_loss = 0.55 + 0.4 * burstiness;
  for (int i = 0; i < n; ++i) {
    const double t = n > 1 ? static_cast<double>(i) / (n - 1) : 0.0;
    ChannelRung r;
    r.p_up = i == 0 ? 0.0 : 0.09 * (1.05 - burstiness);
    r.p_down = i == n - 1 ? 0.0 : 0.008 * (0.15 + burstiness);
    // Convex in depth: mid rungs are mildly lossy, the bottom is a fade.
    r.loss = 0.002 + (worst_loss - 0.002) * t * t;
    r.goodput_bps = top_goodput_bps * std::pow(0.6, i);
    s.rungs.push_back(r);
  }
  return s;
}

ChannelModel::ChannelModel(ChannelSpec spec, std::uint64_t run_seed)
    : spec_{std::move(spec)}, seed_{run_seed} {
  PP_CHECK(!spec_.rungs.empty(), "channel.spec.rungs");
}

void ChannelModel::publish(obs::MetricsRegistry& m) const {
  m.counter("channel.state.attempts")->inc(stats_.attempts);
  m.counter("channel.state.losses")->inc(stats_.losses);
  m.counter("channel.state.worse_entries")->inc(stats_.worse_entries);
}

std::uint32_t ChannelModel::row_of(net::Ipv4Addr station) {
  const auto key_of = [this](std::uint32_t row) { return ips_[row]; };
  std::uint32_t row = by_ip_.find(station, key_of);
  if (row != net::IpIndex::kNone) return row;
  row = static_cast<std::uint32_t>(stations_.size());
  stations_.emplace_back(client_stream_seed(seed_, station.raw()));
  ips_.push_back(station);
  by_ip_.insert(row, key_of);
  return row;
}

// One transition draw: exactly one uniform per step.  Returns true when the
// chain moved to a worse rung.
bool ChannelModel::step(Station& st) {
  const ChannelRung& r = spec_.rungs[static_cast<std::size_t>(st.state)];
  const double up = st.state == 0 ? 0.0 : r.p_up;
  const double down = st.state == spec_.num_states() - 1 ? 0.0 : r.p_down;
  const double u = st.rng.uniform();
  if (u < up) {
    --st.state;
  } else if (u < up + down) {
    ++st.state;
    return true;
  }
  return false;
}

ChannelModel::Attempt ChannelModel::attempt(std::uint32_t row,
                                            sim::Time now) {
  Station& st = stations_[row];
  st.attempted = true;
  // Catch the chain up: one transition draw per tick elapsed since the
  // station's epoch.  The chain thus evolves in wall-clock time whether or
  // not the client is being served — a fade ends while a deferred client
  // sleeps.  The draw count is a pure function of `now`, so replay stays
  // deterministic and salt-invariant.  A one-rung chain never moves.
  Attempt a;
  if (spec_.num_states() > 1) {
    const std::int64_t target = now.count_ns() / kTick.count_ns();
    for (; st.ticks_done < target; ++st.ticks_done) {
      a.worsened = step(st) || a.worsened;
    }
  }
  a.state = st.state;

  // Loss draw from the caught-up rung, only when it can lose (a zero
  // probability must not consume randomness).
  const double p = spec_.rungs[static_cast<std::size_t>(st.state)].loss;
  a.lost = p > 0 && st.rng.chance(p);
  st.ewma += spec_.ewma_alpha * ((a.lost ? 1.0 : 0.0) - st.ewma);

  ++stats_.attempts;
  if (a.lost) ++stats_.losses;
  if (a.worsened) ++stats_.worse_entries;
  return a;
}

ChannelView ChannelModel::view_of(net::Ipv4Addr client) const {
  ChannelView v;
  v.num_states = spec_.num_states();
  const std::uint32_t row =
      by_ip_.find(client, [this](std::uint32_t r) { return ips_[r]; });
  if (row == net::IpIndex::kNone || !stations_[row].attempted) {
    // Never attempted: report the best rung's nominal goodput.
    v.goodput_bps = spec_.rungs[0].goodput_bps;
    return v;
  }
  const Station& st = stations_[row];
  v.known = true;
  v.state = st.state;
  v.loss_ewma = st.ewma;
  v.goodput_bps =
      spec_.rungs[static_cast<std::size_t>(v.state)].goodput_bps *
      (1.0 - v.loss_ewma);
  return v;
}

}  // namespace pp::channel
