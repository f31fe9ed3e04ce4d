// Capture a wireless trace with the monitoring station, save it, reload
// it, and analyze a client postmortem under several delay-compensation
// configurations — the paper's offline methodology as a tool.
//
// Usage: trace_inspector [output.pptrace]
// An argument that starts with '-' is not a path: it prints the usage and
// exits 2, so `trace_inspector --help` writes no file.
#include <cstdio>
#include <iostream>
#include <string>

#include "exp/builder.hpp"
#include "trace/io.hpp"
#include "trace/postmortem.hpp"

int main(int argc, char** argv) {
  using namespace pp;
  if (argc > 1 && argv[1][0] == '-') {
    std::fprintf(stderr, "usage: %s [output.pptrace]\n", argv[0]);
    return 2;
  }
  const std::string path = argc > 1 ? argv[1] : "/tmp/powerproxy.pptrace";

  const exp::ScenarioConfig cfg = exp::ScenarioBuilder{}
                                      .roles({0, 2, exp::kRoleWeb})
                                      .policy(exp::IntervalPolicy::Fixed500)
                                      .seed(5)
                                      .duration_s(60.0)
                                      .keep_trace()
                                      .build();

  std::printf("running a 60 s mixed scenario and capturing the trace...\n");
  const auto res = exp::run_scenario(cfg);
  trace::save_trace(path, res.trace);
  std::printf("monitoring station heard %zu frames -> %s\n",
              res.trace.size(), path.c_str());

  const auto trace = trace::load_trace(path);
  std::printf("reloaded %zu frames; first ten:\n", trace.size());
  trace::TraceBuffer head{trace.begin(),
                          trace.begin() + std::min<std::size_t>(10, trace.size())};
  trace::dump_trace(std::cout, head);
  std::printf("\npostmortem: client %s under different early-transition "
              "amounts\n", res.clients[0].ip.str().c_str());
  trace::PostmortemAnalyzer analyzer{trace};
  std::printf("%8s %10s %12s %10s\n", "early", "saved%", "missed-pkt%",
              "sched-miss");
  for (int early : {0, 2, 6, 10}) {
    client::DaemonConfig dc;
    dc.comp.early = sim::Time::ms(early);
    const auto rep = analyzer.analyze(res.clients[0].ip, dc, res.horizon);
    std::printf("%6dms %10.1f %12.2f %10llu\n", early,
                rep.saved_fraction * 100.0, rep.loss_fraction * 100.0,
                static_cast<unsigned long long>(rep.schedules_missed));
  }
  return 0;
}
