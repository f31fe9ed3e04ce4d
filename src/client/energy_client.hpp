// The live mobile client: a wireless station whose radio is governed by
// the PowerDaemon.  Its WNIC energy accounting is RadioStation's.
//
// Applications (video player, web browser, ftp) attach sockets to node().
// Setting Params::naive produces the paper's baseline client that keeps
// its WNIC in high-power mode for the whole run.
#pragma once

#include <memory>
#include <string>

#include "client/association.hpp"
#include "client/power_daemon.hpp"
#include "client/radio_station.hpp"
#include "energy/wnic.hpp"
#include "obs/fwd.hpp"
#include "proxy/schedule.hpp"
#include "sim/simulator.hpp"

namespace pp::client {

struct ClientParams {
  DaemonConfig daemon{};
  // The power model of the testbed's energy ledger, which every client's
  // energy row lives in (flat SoA — see energy::EnergyLedger).
  energy::WnicPowerModel power{};
  bool naive = false;  // never sleep (the comparison baseline)
  // Dynamic membership (client churn).  When enabled the client carries an
  // AssociationAgent; set_away() drives leave/rejoin handshakes with the
  // proxy and powers the daemon down while disassociated.
  AssocParams assoc{};
};

class EnergyAwareClient : public RadioStation {
 public:
  // `params` must outlive the client: its daemon references params.daemon,
  // the one copy every client of a testbed shares.
  EnergyAwareClient(sim::Simulator& sim, net::WirelessMedium& medium,
                    energy::EnergyLedger& ledger, net::Ipv4Addr ip,
                    std::string name, const ClientParams& params);
  EnergyAwareClient(sim::Simulator&, net::WirelessMedium&,
                    energy::EnergyLedger&, net::Ipv4Addr, std::string,
                    ClientParams&&) = delete;

  // Begin the power daemon (no-op for naive clients).  An assoc-enabled
  // client starts Associated: the testbed pre-registers the fleet.
  void start();

  // Churn driver (FaultPlan ClientChurn windows).  away=true starts a
  // graceful leave — the radio stays up until the proxy's LeaveAck (or the
  // retry budget runs out), then the daemon stops.  away=false restarts
  // the daemon and re-joins.  No-op unless assoc is enabled.
  void set_away(bool away);
  // Present (non-null) only when assoc is enabled.
  const AssociationAgent* assoc() const { return assoc_.get(); }

  // Attach the per-client awake duty-cycle gauge ("client.<ip>.awake")
  // and sleep/wake timeline events; also hooks the daemon.
  void set_obs(obs::Observer* ob);
  // Add the daemon's and the association agent's counts to the client.*
  // counters.
  void publish(obs::MetricsRegistry& m) const;

  PowerDaemon& daemon() { return daemon_; }
  const DaemonStats& daemon_stats() const { return daemon_.stats(); }

  // -- net::WirelessStation --------------------------------------------------------
  bool listening() const override;
  void deliver(net::Packet pkt, sim::Duration airtime) override;

 private:
  void record_power_state(bool awake);

  PowerDaemon daemon_;
  std::unique_ptr<AssociationAgent> assoc_;
  // Observability handles, allocated by set_obs: null for a fleet's
  // clients, which run with per-client observability off.
  struct Obs {
    obs::Observer* ob = nullptr;
    obs::TimeWeightedGauge* twg_awake = nullptr;
  };
  std::unique_ptr<Obs> obs_;
  bool naive_;  // ClientParams::naive
};

}  // namespace pp::client
