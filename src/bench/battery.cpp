#include "bench/battery.hpp"

// pp-lint: allow(wall-clock): host-side progress ETA only — wall time never
// enters simulation state, which runs exclusively on sim::Time.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>

#include "exp/parallel.hpp"

namespace pp::bench {

BatteryOptions parse_args(int argc, char** argv) {
  BatteryOptions opts;
  if (const char* env = std::getenv("PP_BENCH_JSON"); env && *env &&
      std::strcmp(env, "0") != 0) {
    opts.json = true;
  }
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (std::strncmp(a, "--threads=", 10) == 0) {
      opts.threads = static_cast<unsigned>(std::strtoul(a + 10, nullptr, 10));
    } else if (std::strcmp(a, "--json") == 0) {
      opts.json = true;
    } else if (std::strcmp(a, "--quiet") == 0) {
      opts.progress = false;
    }
  }
  return opts;
}

std::vector<exp::ScenarioResult> run_battery(
    const std::vector<exp::ScenarioConfig>& configs,
    const BatteryOptions& opts) {
  // pp-lint: allow(wall-clock): host-side ETA, see the include note
  using WallClock = std::chrono::steady_clock;
  const auto t0 = WallClock::now();
  const auto elapsed_s = [&t0] {
    return std::chrono::duration<double>(WallClock::now() - t0).count();
  };

  std::vector<std::function<exp::ScenarioResult()>> tasks;
  tasks.reserve(configs.size());
  for (const exp::ScenarioConfig& cfg : configs) {
    tasks.emplace_back([&cfg] { return exp::run_scenario(cfg); });
  }
  std::function<void(std::size_t, std::size_t)> on_done;
  if (opts.progress) {
    on_done = [&elapsed_s](std::size_t done, std::size_t total) {
      std::fprintf(stderr, "\r[battery] %zu/%zu done", done, total);
      if (done < total) {
        std::fprintf(stderr, " eta %.1fs",
                     elapsed_s() / static_cast<double>(done) *
                         static_cast<double>(total - done));
      }
      std::fflush(stderr);
    };
  }
  auto results = exp::run_parallel(tasks, opts.threads, on_done);
  if (opts.progress) {
    std::fprintf(stderr, "\r[battery] %zu runs, %.2fs\n", results.size(),
                 elapsed_s());
  }
  return results;
}

int emit(const Report& rep, const BatteryOptions& opts) {
  if (opts.json) {
    std::printf("%s\n", rep.json().c_str());
  } else {
    rep.print();
  }
  return 0;
}

}  // namespace pp::bench
