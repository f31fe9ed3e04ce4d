// Client-side association lifecycle (dynamic membership).
//
// Drives the per-client state machine
//
//   Disassociated -> Associating -> AcquiringSrp -> Associated
//                         ^                             |
//                         +--------- Draining <---------+
//
// over the tiny Join/Leave protocol in proxy/assoc.hpp:
//
//  * join(): send Join, retransmit with exponential backoff until the
//    JoinAck arrives (Associating), then stay awake until a schedule
//    broadcast is heard (AcquiringSrp) — that broadcast anchors the SRP
//    cadence, after which the PowerDaemon sleeps normally (Associated).
//    If no schedule is heard inside the acquisition timeout (lost
//    broadcasts, paused proxy), fall back to re-joining.
//  * leave(): send Leave (graceful: the proxy drains our queue first),
//    retransmit with backoff, and on the LeaveAck — or after the bounded
//    retries are exhausted — fire on_down so the owner powers the radio
//    off.  The radio stays up through Draining: the drain bursts and the
//    ack still have to be heard.
//
// All timing is deterministic: backoff jitter comes from a named RNG
// stream derived from (run seed, stream tag, client address), never from
// the simulator's shared stream, so churn timing is identical across
// replays and invariant to hash salts.
#pragma once

#include <cstdint>
#include <functional>

#include "net/packet.hpp"
#include "obs/hooks.hpp"
#include "proxy/assoc.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"

namespace pp::client {

struct AssocParams {
  bool enabled = false;
  // Seed for the backoff-jitter stream; the testbed sets this to the run
  // seed so churn timing replays bit-identically.
  std::uint64_t run_seed = 1;
  net::Ipv4Addr proxy_ip = net::Ipv4Addr::octets(10, 0, 0, 254);
  // Base retransmission timeout for Join/Leave; attempt k waits
  // retry_timeout * backoff_base^k (capped) +/- jitter_frac of itself.
  sim::Duration retry_timeout = sim::Time::ms(120);
  double backoff_base = 2.0;
  sim::Duration backoff_cap = sim::Time::ms(2000);
  double jitter_frac = 0.25;
  // JoinAck in hand but no schedule heard yet: re-join after this long.
  sim::Duration srp_acquire_timeout = sim::Time::ms(1500);
  // Leave retransmissions before giving up and going dark unacked.
  int max_leave_retries = 3;
};

struct AssocStats {
  std::uint64_t joins_sent = 0;     // first transmissions only
  std::uint64_t join_retries = 0;   // backoff retransmissions
  std::uint64_t join_acks = 0;
  std::uint64_t srp_reacquires = 0; // acquisition timeouts -> re-join
  std::uint64_t leaves_sent = 0;
  std::uint64_t leave_retries = 0;
  std::uint64_t leave_acks = 0;
  std::uint64_t leave_abandons = 0;  // gave up waiting for the LeaveAck
};

class AssociationAgent {
 public:
  enum class State : std::uint8_t {
    Disassociated,
    Associating,   // Join sent, awaiting JoinAck
    AcquiringSrp,  // JoinAck in hand, awaiting a schedule broadcast
    Associated,
    Draining,      // Leave sent, awaiting LeaveAck
  };

  // pp-lint: allow(hot-path-alloc): constructed once per client at wiring
  using SendFn = std::function<void(net::Packet)>;

  // `send` transmits a control packet uplink; `on_down` fires when the
  // client has left the cell for good (LeaveAck received or leave retries
  // exhausted) so the owner can power the radio off.
  AssociationAgent(sim::Simulator& sim, net::Ipv4Addr self, AssocParams params,
                   SendFn send, std::function<void()> on_down);
  ~AssociationAgent();

  AssociationAgent(const AssociationAgent&) = delete;
  AssociationAgent& operator=(const AssociationAgent&) = delete;

  // The testbed pre-registers the whole fleet with the proxy at start, so
  // an assoc-enabled run begins Associated without a Join handshake (and
  // differs from a plain run only when churn actually happens).
  void start_associated() { state_ = State::Associated; }

  void join();
  void leave();

  // An association control packet addressed to this client arrived.
  void on_packet(const net::AssocHeader& msg);
  // A schedule broadcast reached this client (SRP cadence acquired).
  void note_schedule();

  State state() const { return state_; }
  bool associated() const { return state_ == State::Associated; }
  // A handshake is in flight: the radio must stay powered outside the
  // daemon's schedule or the JoinAck / schedule broadcast / LeaveAck the
  // state machine is waiting for would be lost on the air.
  bool needs_radio() const {
    return state_ == State::Associating || state_ == State::AcquiringSrp ||
           state_ == State::Draining;
  }
  const AssocStats& stats() const { return stats_; }

  // Add this agent's join and leave retries to client.assoc.retries.
  void publish(obs::MetricsRegistry& m) const;

 private:
  void send_control(net::AssocKind kind);
  void send_join();
  void send_leave();
  void go_down();
  sim::Duration backoff(int attempt);

  sim::Simulator& sim_;
  net::Ipv4Addr self_;
  AssocParams params_;
  SendFn send_;
  std::function<void()> on_down_;
  sim::Rng rng_;

  State state_ = State::Disassociated;
  std::uint64_t ctrl_seq_ = 0;  // last issued handshake seq
  int attempt_ = 0;             // retransmissions of the current handshake
  sim::EventHandle timer_;      // retry / acquisition timer

  AssocStats stats_;
};

// The named association RNG stream for one client: the run seed, the
// stream tag, and the client address folded in so per-client jitter
// sequences are mutually independent and salt-invariant.
sim::Rng assoc_stream(std::uint64_t run_seed, net::Ipv4Addr self);

}  // namespace pp::client
