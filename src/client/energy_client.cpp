#include "client/energy_client.hpp"

#include <utility>

#include "obs/metrics.hpp"
#include "obs/timeline.hpp"

namespace pp::client {

EnergyAwareClient::EnergyAwareClient(sim::Simulator& sim,
                                     net::WirelessMedium& medium,
                                     energy::EnergyLedger& ledger,
                                     net::Ipv4Addr ip, std::string name,
                                     const ClientParams& params)
    : RadioStation{sim, medium, ledger, ip, std::move(name)},
      daemon_{sim, ip, params.daemon, [this](bool awake) {
                set_wnic_mode(awake ? energy::WnicMode::Idle
                                    : energy::WnicMode::Sleep);
                record_power_state(awake);
              }},
      naive_{params.naive} {
  node().set_transmitter([this](net::Packet pkt) {
    // Uplink requires the radio on; app-initiated sends wake it and extend
    // the activity hold so the response is not slept through.  Pure TCP
    // ACKs (sent while receiving a burst) must NOT hold the radio awake,
    // or the post-burst sleep would be lost.
    const bool hold = !naive_ && is_request(pkt);
    if (hold) daemon_.force_awake();
    transmit(std::move(pkt));
    // The channel may be busy for a while before the frame even airs;
    // measure the response hold from when it clears.
    if (hold) daemon_.extend_hold(channel_busy_until());
  });
  if (params.assoc.enabled) {
    assoc_ = std::make_unique<AssociationAgent>(
        sim_, ip, params.assoc,
        [this](net::Packet pkt) {
          // Control frames ride the raw medium path: the energy and airtime
          // accounting comes through on_air like any other uplink frame.
          transmit(std::move(pkt));
        },
        [this] {
          // Departed for good: radio off (naive baselines stay listening —
          // they never sleep by definition).
          if (!naive_) daemon_.stop();
        });
  }
}

void EnergyAwareClient::start() {
  if (assoc_) assoc_->start_associated();
  if (!naive_) daemon_.start();
}

void EnergyAwareClient::set_away(bool away) {
  if (!assoc_) return;
  if (away) {
    assoc_->leave();
  } else {
    // Radio up first: the JoinAck and the renegotiated schedule must be
    // heard.  The daemon resets to AwaitingSchedule, so it stays awake
    // until the fresh broadcast anchors it.
    if (!naive_) daemon_.start();
    assoc_->join();
  }
}

void EnergyAwareClient::set_obs(obs::Hook hook) {
  (void)hook;
  PP_OBS(obs_ = std::make_unique<Obs>(Obs{hook});
         if (auto* m = hook.metrics()) {
           obs_->twg_awake = m->time_gauge("client." + ip().str() + ".awake");
           obs_->twg_awake->set(sim_.now(), listening() ? 1.0 : 0.0);
         } daemon_.set_obs(hook, ip().raw()));
}

void EnergyAwareClient::publish(obs::MetricsRegistry& m) const {
  daemon_.publish(m);
  if (assoc_) assoc_->publish(m);
}

void EnergyAwareClient::record_power_state(bool awake) {
  (void)awake;
  PP_OBS(if (!obs_) return;
         if (obs_->twg_awake)
             obs_->twg_awake->set(sim_.now(), awake ? 1.0 : 0.0);
         if (auto* tl = obs_->hook.timeline())
             tl->record(sim_.now(),
                        awake ? obs::EventKind::Wake : obs::EventKind::Sleep,
                        ip().raw()));
}

bool EnergyAwareClient::listening() const {
  // An in-flight association handshake pins the radio up even where the
  // daemon would sleep: the acks it is waiting for arrive outside any
  // scheduled slot.
  return naive_ || daemon_.awake() || (assoc_ && assoc_->needs_radio());
}

void EnergyAwareClient::deliver(net::Packet pkt, sim::Duration airtime) {
  charge_receive(airtime);

  // Association control (unicast, both ports == kAssocPort): control
  // plane like the schedule broadcast — charged for energy, not counted
  // as traffic.
  if (pkt.proto == net::Protocol::Udp && !pkt.is_broadcast() &&
      pkt.dst_port == proxy::kAssocPort &&
      pkt.src_port == proxy::kAssocPort) {
    if (assoc_ && pkt.app == net::AppKind::Assoc) assoc_->on_packet(pkt.assoc);
    return;
  }

  const bool is_schedule =
      pkt.proto == net::Protocol::Udp && pkt.is_broadcast() &&
      pkt.dst_port == proxy::kSchedulePort;
  if (is_schedule) {
    // Control plane: charged for energy (airtime above) but not counted as
    // received traffic.
    if (assoc_) assoc_->note_schedule();
    if (naive_) return;
    if (auto msg = pkt.share<proxy::ScheduleMessage>()) {
      daemon_.on_schedule(std::move(msg));
    }
    return;
  }
  count_data(pkt);
  // Downlink datagram delay: UDP data keeps its origin timestamp through
  // the proxy queue, so now - sent_at is the end-to-end buffering delay.
  // Burst markers (proxy-originated, src_port == kSchedulePort) are control
  // plane and excluded.
  if (pkt.proto == net::Protocol::Udp && !pkt.is_broadcast() &&
      pkt.src_port != proxy::kSchedulePort) {
    count_delay(sim_.now() - pkt.sent_at);
  }
  // Hand to the stack first (so ACKs go out while we are still awake),
  // then let the daemon act on the marked bit — a marked packet may put
  // the radio to sleep immediately.
  const std::uint32_t payload = pkt.payload;
  const bool marked = pkt.marked;
  node().handle_packet(std::move(pkt));
  if (!naive_) daemon_.on_data(payload, marked);
}

}  // namespace pp::client
