#include "trace/postmortem.hpp"

#include <memory>

#include "proxy/schedule.hpp"
#include "sim/simulator.hpp"

namespace pp::trace {

PostmortemReport PostmortemAnalyzer::analyze(net::Ipv4Addr client,
                                             const client::DaemonConfig& cfg,
                                             sim::Time horizon) const {
  PostmortemReport rep;
  rep.client = client;

  sim::Simulator replay;
  energy::EnergyLedger ledger{model_};
  energy::EnergyAccountant acc{ledger, sim::Time::zero(),
                               energy::WnicMode::Idle};
  client::PowerDaemon daemon{replay, client, cfg, [&](bool awake) {
                               acc.set_mode(replay.now(),
                                            awake ? energy::WnicMode::Idle
                                                  : energy::WnicMode::Sleep);
                             }};
  daemon.start();

  sim::Duration addressed_airtime;   // frames a naive client would receive
  sim::Duration transmit_airtime;    // the client's own transmissions
  sim::Time end = horizon;

  for (const TraceRecord& rec : trace_) {
    if (rec.air_end() > end) end = rec.air_end();
    if (rec.src == client && !rec.from_ap) {
      // The client's own uplink frame: charge transmit airtime at replay
      // time (the radio was necessarily on to send it).
      transmit_airtime += rec.airtime;
      const sim::Duration airtime = rec.airtime;
      replay.at(rec.air_end(), [&acc, airtime] {
        acc.add_transient(energy::WnicMode::Transmit, airtime);
      });
      continue;
    }
    if (!rec.from_ap) continue;  // other clients' uplink frames
    const bool to_me = rec.dst == client;
    const bool is_schedule = rec.is_broadcast() &&
                             rec.dst_port == proxy::kSchedulePort;
    if (!to_me && !is_schedule) continue;
    addressed_airtime += rec.airtime;

    // NOTE: the record is captured by address — trace_ outlives the
    // replay — and is_schedule by value, since the loop locals are long
    // gone when these events fire.
    replay.at(rec.air_end(), [&rep, &daemon, &acc, r = &rec, is_schedule] {
      if (!daemon.awake()) {
        if (!r->is_broadcast()) ++rep.packets_missed;
        return;
      }
      acc.add_transient(energy::WnicMode::Receive, r->airtime);
      if (is_schedule) {
        if (r->schedule) daemon.on_schedule(r->schedule);
        return;
      }
      ++rep.packets_received;
      rep.bytes_received += r->payload;
      net::Packet pkt;  // the daemon only looks at the marked bit
      pkt.marked = r->marked;
      daemon.on_data(pkt);
    });
  }

  replay.run_until(end);

  const auto& st = daemon.stats();
  rep.schedules_received = st.schedules_received;
  rep.schedules_missed = st.schedules_missed;
  rep.early_wait = st.early_wait;
  rep.missed_wait = st.missed_wait;
  const double idle_sleep_delta = model_.mw(energy::WnicMode::Idle) -
                                  model_.mw(energy::WnicMode::Sleep);
  rep.early_wait_mj = idle_sleep_delta * st.early_wait.to_seconds();
  rep.missed_wait_mj = idle_sleep_delta * st.missed_wait.to_seconds();

  // Settle the accountant at the horizon.
  acc.finish(end);
  rep.energy_mj = acc.energy_mj(end);
  rep.high_power_time = acc.high_power_time();
  rep.low_power_time = acc.time_in(energy::WnicMode::Sleep);
  rep.wake_transitions = acc.wake_transitions();

  rep.naive_energy_mj = energy::naive_energy_mj(
      model_, end - sim::Time::zero(), addressed_airtime, transmit_airtime);
  rep.saved_fraction =
      energy::saved_fraction(rep.energy_mj, rep.naive_energy_mj);
  const double total_pkts =
      static_cast<double>(rep.packets_received + rep.packets_missed);
  rep.loss_fraction =
      total_pkts > 0 ? static_cast<double>(rep.packets_missed) / total_pkts
                     : 0;
  return rep;
}

}  // namespace pp::trace
