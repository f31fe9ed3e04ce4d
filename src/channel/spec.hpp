// Channel-quality specifications: the declarative half of the per-client
// channel subsystem.
//
// A ChannelSpec describes a multi-state Markov quality ladder for every
// client's wireless channel, as pure data: rung 0 is the best state and
// higher rungs are progressively worse.  The chain evolves on a fixed
// wall-clock tick (ChannelModel::kTick): each delivery attempt first
// catches the client's chain up with one transition draw per elapsed
// tick, then draws corruption from the resulting rung.  Time-based fading
// is what makes *reacting* to channel state meaningful — a deferred
// client's fade can end while it sleeps.  The two-rung special case is the
// classic Gilbert-Elliott channel; the N-rung generalization is the
// rate-ladder channel of the joint queue/channel-aware scheduling
// literature (arXiv:1807.10128).  One rung is flat loss; none is lossless.
//
// Deliberately light on dependencies (plain numbers only) so config-level
// code can embed a spec without pulling in the network stack.  The runtime
// half that owns the RNG streams and per-client state is
// channel::ChannelModel.
#pragma once

#include <vector>

namespace pp::channel {

// One quality state.  Transition probabilities are per chain tick: p_up
// moves toward rung 0 (better), p_down toward the last rung (worse).  The
// stepper ignores p_up on rung 0 and p_down on the last rung.
struct ChannelRung {
  double p_up = 0.0;
  double p_down = 0.0;
  double loss = 0.0;         // per-attempt corruption probability
  double goodput_bps = 4e6;  // nominal goodput published to observers
};

struct ChannelSpec {
  // Recent-loss EWMA smoothing per attempt (observer surface only).
  double ewma_alpha = 0.05;
  std::vector<ChannelRung> rungs;  // index 0 = best; empty = lossless

  int num_states() const { return static_cast<int>(rungs.size()); }

  // -- Presets ----------------------------------------------------------------------
  // Flat loss: one rung losing each attempt with probability `p` (empty
  // when `p` is 0).
  static ChannelSpec flat(double p);
  // The classic two-state Gilbert-Elliott channel (rung 0 = good).  The
  // transition probabilities are per chain tick, so the mean sojourn in a
  // state is 1/p_exit ticks.
  static ChannelSpec two_state(double p_good_bad, double p_bad_good,
                               double loss_good, double loss_bad,
                               double goodput_bps = 4e6);
  // An n-rung rate ladder parameterized by burstiness in [0, 1]: higher
  // burstiness means stickier degraded states (longer fades) and deeper
  // worst-rung loss.
  static ChannelSpec ladder(int n, double burstiness,
                            double top_goodput_bps = 4e6);
};

}  // namespace pp::channel
