// Shared 11 Mbps wireless medium (802.11b-style, infrastructure mode).
//
// The channel is half-duplex: transmissions serialize in FIFO order of the
// requests (a simple CSMA abstraction).  Every packet pays a fixed MAC
// overhead time plus payload bits at the data rate; broadcasts go at the
// basic rate, as in 802.11.  Stations attached to the medium declare
// whether they are listening — a sleeping WNIC misses packets addressed to
// it, which is exactly the loss mode the paper's clients risk.
//
// Delivery rules (infrastructure mode): frames sent by the access point go
// to the addressed station (or all stations for broadcast); frames sent by
// any other station go to the access point, which forwards them upstream.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "net/addr.hpp"
#include "net/chunk.hpp"
#include "net/fifo_ring.hpp"
#include "net/ip_index.hpp"
#include "net/packet.hpp"
#include "obs/fwd.hpp"
#include "sim/simulator.hpp"

namespace pp::net {

// A device on the wireless medium (client WNIC or the access point's radio).
class WirelessStation {
 public:
  virtual ~WirelessStation() = default;

  // True when the radio can receive (high-power mode).
  virtual bool listening() const = 0;

  // Successful reception.  `airtime` is how long the frame occupied the
  // channel; implementations use it for receive-mode energy accounting.
  virtual void deliver(Packet pkt, sim::Duration airtime) = 0;

  // A frame addressed to this station ended while the radio was not
  // listening (or was corrupted).  Used for loss accounting and for the
  // naive-client baseline (which would have spent `airtime` receiving).
  virtual void missed(const Packet& pkt, sim::Duration airtime) {
    (void)pkt;
    (void)airtime;
  }

  // This station's own frame occupied the channel during [start, start+dur).
  // Used for transmit-mode energy accounting.
  virtual void on_air(sim::Time start, sim::Duration dur) {
    (void)start;
    (void)dur;
  }
};

// Pluggable frame-corruption model: the medium's one loss source besides
// deep fades.  A frame draws on the row of the client station whose
// channel it crosses (receiver for downlink, sender for uplink), resolved
// once when the station attaches or the model is installed.
class ChannelLossModel {
 public:
  virtual ~ChannelLossModel() = default;
  virtual std::uint32_t row_of(Ipv4Addr station) = 0;
  // One delivery attempt on `row`'s channel: true = lost.
  virtual bool corrupted(std::uint32_t row, sim::Time now) = 0;
};

struct WirelessParams {
  double rate_bps = 11e6;        // data rate
  double broadcast_rate_bps = 2e6;  // basic rate for broadcast frames
  // Fixed per-frame channel time: DIFS + average backoff + RTS/CTS + PLCP
  // preamble and header + MAC ACK exchange, plus the access point's share
  // of per-frame processing.  The default is calibrated so full-size
  // frames yield ~4.0 Mb/s of one-way goodput, matching the paper's
  // measured "effective bandwidth of 4 Mbps" on 11 Mbps hardware — which
  // makes ten 512 kbps streams (4.5 Mb/s) genuinely oversubscribe the
  // channel, as they did in the paper (Section 4.3).
  sim::Duration per_frame_overhead = sim::Time::us(1750);
  sim::Duration propagation = sim::Time::us(2);
  std::uint32_t mac_framing_bytes = 34;  // 802.11 MAC header + FCS
};

// Observes every frame on the air, regardless of addressee or corruption.
// `delivered` is false when the addressed receiver missed the frame (asleep
// or corrupted).  Airtime end == the time of the callback.
struct SnifferRecord {
  Packet pkt;
  sim::Time air_start;
  sim::Duration airtime;
  bool from_ap = false;
  bool delivered = false;
};
// pp-lint: allow(hot-path-alloc): sniffers are test/monitor-only instruments
using SnifferFn = std::function<void(const SnifferRecord&)>;

class WirelessMedium {
 public:
  using StationId = std::size_t;
  static constexpr StationId kNoStation = static_cast<StationId>(-1);

  WirelessMedium(sim::Simulator& sim, WirelessParams params = {});

  // Attach the access point's radio (exactly one per medium).
  StationId attach_access_point(WirelessStation& ap);
  // Attach a client station with its IP address, which no other station
  // on this medium may share.
  StationId attach_station(WirelessStation& st, Ipv4Addr ip);

  // Queue a frame for transmission.  The channel serializes requests.
  void transmit(StationId sender, Packet pkt);

  // Queue a whole burst chain as one medium reservation (access point
  // only, unicast to a single client): one airtime computation over the
  // chain and one finish event instead of N.  Per-frame semantics are
  // preserved — each frame still gets its own corruption draw, per-frame
  // receive airtime, miss accounting and sniffer record — but the frames
  // land back-to-back at the end of the reservation.
  void transmit_burst(StationId sender, ChunkQueue burst);

  void add_sniffer(SnifferFn fn) { sniffers_.push_back(std::move(fn)); }

  // True when the station owning `ip` currently has its radio listening.
  // Used by the access point to model the PS-Poll exchange: parked frames
  // are only released to stations that are awake to ask for them.
  bool station_listening(Ipv4Addr ip) const;

  // Time the channel becomes free (>= now when busy).
  sim::Time busy_until() const { return busy_until_; }
  sim::Duration airtime_of(const Packet& pkt) const;

  std::uint64_t frames_sent() const { return frames_sent_; }
  std::uint64_t frames_missed() const { return frames_missed_; }
  std::uint64_t bursts() const { return bursts_; }

  const WirelessParams& params() const { return params_; }

  // Attach the airtime and burst-size histograms to an observer.
  void set_obs(obs::Observer* ob);
  // Write the frame and burst counters from the medium's own counts.
  void publish(obs::MetricsRegistry& m) const;

  // Install the loss model (nullptr = lossless, the default) and resolve
  // each attached client's row.  Not owned; must outlive the medium.
  void set_loss_model(ChannelLossModel* model);

  // Deep fade on the channel of the station owning `ip`: while faded, every
  // frame to that station, or from it to the access point, is lost before
  // the loss model is consulted and without any random draw, so a fade
  // never shifts a draw sequence.  Calls nest (on/off pairs).
  void set_faded(Ipv4Addr ip, bool on);
  // Frames lost to a deep fade.
  std::uint64_t fade_losses() const { return fade_losses_; }

 private:
  struct Entry {
    WirelessStation* station;
    Ipv4Addr ip;
    int fades = 0;  // open deep-fade windows on this station's channel
    std::uint32_t row = 0;  // loss-model row (client stations only)
  };

  // A frame on the air, waiting in frames_ for its finish event.
  struct FrameInFlight {
    StationId sender = kNoStation;
    sim::Time air_start;
    sim::Duration airtime;
    Packet pkt;
  };
  // A burst reservation on the air, waiting in bursts_in_flight_.
  struct BurstInFlight {
    sim::Time air_start;
    ChunkQueue burst;
  };

  // The client station with address `ip`, or kNoStation.
  StationId station_of(Ipv4Addr ip) const;
  void finish_frame(StationId sender, Packet pkt, sim::Time air_start,
                    sim::Duration airtime);
  void finish_burst(ChunkQueue burst, sim::Time air_start);
  // One frame's fate at `receiver`; true when delivered.  `channel` is the
  // client station whose link the frame crosses: the receiver for
  // downlink, the sender for uplink.  With `consume` the delivery takes
  // `pkt` (the frame's last receiver, no sniffer attached).
  bool deliver_to(StationId receiver, StationId channel, Packet& pkt,
                  bool consume, sim::Duration airtime);

  sim::Simulator& sim_;
  WirelessParams params_;
  std::vector<Entry> stations_;
  // Client stations by address (the access point is not indexed).  Every
  // unicast frame and burst resolves its receiver here.
  IpIndex by_ip_;
  StationId ap_ = kNoStation;
  sim::Time busy_until_ = sim::Time::zero();
  // Frames and bursts share busy_until_, so each ring's finish events
  // fire in its push order (see net/fifo_ring.hpp).
  FifoRing<FrameInFlight> frames_;
  FifoRing<BurstInFlight> bursts_in_flight_;
  std::vector<SnifferFn> sniffers_;
  std::uint64_t frames_sent_ = 0;
  std::uint64_t frames_missed_ = 0;
  std::uint64_t bursts_ = 0;  // transmit_burst reservations
  std::uint64_t fade_losses_ = 0;
  ChannelLossModel* loss_model_ = nullptr;

  obs::Histogram* hist_airtime_us_ = nullptr;
  obs::Histogram* hist_burst_frames_ = nullptr;
};

}  // namespace pp::net
