// Section 4.3 drop studies.
//
// (a) Netfilter-style experiment: packets that arrive while the client
//     sleeps really are dropped (that is how our medium always behaves);
//     measure the ftp transfer-time inflation versus an always-on client.
// (b) DummyNet-style experiment: a 4 Mb/s channel with ~2 ms RTT and a 5%
//     random drop rate.
//
// Paper reference: dropping packets while asleep costs no more than a 10%
// increase in transmission time (=> no more than ~5% extra energy), because
// the proxy-client RTT is small; the DummyNet run behaves similarly.
#include "bench/battery.hpp"
#include "exp/builder.hpp"

namespace {

pp::exp::ScenarioConfig ftp_cfg(bool naive_like, double p_loss) {
  using namespace pp;
  exp::ScenarioBuilder b;
  b.ftp()
      .policy(exp::IntervalPolicy::Fixed500)
      .seed(31)
      .duration_s(200.0)
      .ftp_bytes(2'000'000);
  if (naive_like) {
    // Direct baseline: no shaping, client always in high power.
    b.proxy_mode(proxy::ProxyMode::Passthrough).naive_clients();
  }
  if (p_loss > 0) b.wireless_p_loss(p_loss);
  return b.build();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace pp;
  const auto opts = bench::parse_args(argc, argv);

  const auto results = bench::run_battery(
      {
          ftp_cfg(/*naive_like=*/true, 0.0),
          ftp_cfg(/*naive_like=*/false, 0.0),
          ftp_cfg(/*naive_like=*/false, 0.05),
      },
      opts);

  const char* kNames[] = {"direct (passthrough proxy)",
                          "scheduled (drops while asleep)",
                          "scheduled + 5% medium drop (4Mb/s)"};
  bench::Report rep{"Drop studies (2 MB ftp download)"};
  auto& sec = rep.section();
  double t[3] = {0, 0, 0};
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& c = results[i].clients[0];
    t[i] = c.ftp_seconds;
    sec.row()
        .cell("configuration", kNames[i])
        .cell("transfer-s", c.ftp_seconds, 2)
        .cell("saved%", c.saved_pct, 1)
        .cell("loss%", c.loss_pct, 2);
  }

  if (t[0] > 0 && t[1] > 0) {
    char note[192];
    std::snprintf(note, sizeof note,
                  "scheduling slows the transfer %.1fx (bursts trade latency "
                  "for energy); 5%% random drops add %.1f%% on top of the "
                  "scheduled time.",
                  t[1] / t[0],
                  t[2] > 0 ? 100.0 * (t[2] - t[1]) / t[1] : -1.0);
    rep.note(note);
  }
  rep.note(
      "paper: the *drop-when-asleep* effect itself is <= 10% transfer-time "
      "increase (<= ~5% energy), thanks to the short proxy-client RTT.");
  return bench::emit(rep, opts);
}
