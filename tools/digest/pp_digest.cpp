// pp_digest: print replay digests for a fixed set of example scenarios.
//
// The determinism harness runs this binary twice with different
// PP_HASH_SEED values (which salt every unordered-container hash, see
// net::set_hash_salt) and diffs the output: identical lines mean no code
// path let hash-bucket iteration order leak into simulation behaviour.
//
//   PP_HASH_SEED=1 pp_digest > a.txt
//   PP_HASH_SEED=2 pp_digest > b.txt
//   diff a.txt b.txt
//
// Exits 1 if any digest is 0: two empty digests would compare equal and
// check nothing.
#include <cinttypes>
#include <cstdio>
#include <cstdlib>

#include "channel/spec.hpp"
#include "exp/digest.hpp"
#include "net/addr.hpp"

namespace {

using pp::exp::IntervalPolicy;
using pp::exp::ScenarioConfig;

// Short versions of the example scenarios: enough sim time to exercise
// schedules, bursts, PSM parking, splices, and reaping, but fast to run.
ScenarioConfig base() {
  ScenarioConfig cfg;
  cfg.duration_s = 20.0;
  cfg.web_pages = 4;
  cfg.ftp_bytes = 400'000;
  return cfg;
}

}  // namespace

int main() {
  if (const char* seed = std::getenv("PP_HASH_SEED")) {
    pp::net::set_hash_salt(std::strtoull(seed, nullptr, 10));
  }

  struct Named {
    const char* name;
    ScenarioConfig cfg;
  };
  Named scenarios[] = {
      {"all_video_fixed500", base()},
      {"mixed_variable", base()},
      {"web_fixed100", base()},
      {"ge_faulted", base()},
      {"lqf_channel", base()},
      {"opportunistic_channel", base()},
      {"probabilistic_channel", base()},
  };
  scenarios[0].cfg.roles = {1, 1, 2, 3};
  scenarios[1].cfg.roles = {1, 2, pp::exp::kRoleWeb, pp::exp::kRoleFtp};
  scenarios[1].cfg.policy = IntervalPolicy::Variable;
  scenarios[2].cfg.roles = {pp::exp::kRoleWeb, pp::exp::kRoleWeb};
  scenarios[2].cfg.policy = IntervalPolicy::Fixed100;
  // Gilbert-Elliott corruption: the two_state channel preset.
  {
    ScenarioConfig& c = scenarios[3].cfg;
    c.roles = {1, 1, 2, pp::exp::kRoleWeb};
    c.duration_s = 15.0;
    c.web_pages = 3;
    c.channel = pp::channel::ChannelSpec::two_state(0.01, 0.05, 0.001, 0.85);
  }
  // The policy zoo on a bursty per-client channel ladder.
  for (int i = 4; i <= 6; ++i) {
    ScenarioConfig& c = scenarios[i].cfg;
    c.roles = {1, 1, 2, 2};
    c.channel = pp::channel::ChannelSpec::ladder(3, 0.8);
  }
  scenarios[4].cfg.policy = IntervalPolicy::LongestQueue500;
  scenarios[5].cfg.policy = IntervalPolicy::Opportunistic500;
  scenarios[6].cfg.policy = IntervalPolicy::Probabilistic500;

  int rc = 0;
  for (const Named& s : scenarios) {
    const std::uint64_t d = pp::exp::run_digest(s.cfg);
    std::printf("%s %016" PRIx64 "\n", s.name, d);
    if (d == 0) rc = 1;
  }
  return rc;
}
