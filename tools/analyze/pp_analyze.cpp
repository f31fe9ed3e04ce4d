// pp_analyze: whole-project static analysis for the simulation sources.
//
// pp_analyze builds a project index (every .cpp/.hpp under src/, bench/,
// examples/, tests/, with include edges and module ids) and runs both the
// single-file rule families and the cross-file ones:
//
//   rng-stream-unique     duplicate RNG stream tags across the project
//   obs-name-consistency  find_*("name") reads with no registration site
//   check-side-effect     ++/--/assignment inside PP_CHECK arguments
//   layer-dag             include edges violating the module layer DAG
//   hot-path-alloc        allocating constructs in the sim/net hot closure
//
// plus wall-clock, randomness, unordered-iter, raw-new/raw-delete, and
// naked-duration everywhere.  A finding is suppressed at the site by
//   // pp-lint: allow(<rule>): <justification>
// or accepted by an entry in the committed baseline (tools/analyze/
// baseline.txt; see baseline.hpp for the format).  Anything else fails
// the run — pp_analyze is a tier-1 ctest, so a new finding fails CI.
//
// Usage:
//   pp_analyze --root <repo-root> [--baseline <file>]
//              [--update-baseline <file>] [--list-hot]
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "analyze/baseline.hpp"
#include "analyze/index.hpp"
#include "analyze/rules.hpp"

int main(int argc, char** argv) {
  using namespace pp::analyze;

  std::string root;
  std::string baseline_path;
  std::string update_path;
  bool list_hot = false;
  for (int a = 1; a < argc; ++a) {
    const std::string arg = argv[a];
    auto next = [&]() -> const char* {
      return a + 1 < argc ? argv[++a] : nullptr;
    };
    if (arg == "--root") {
      if (const char* v = next()) root = v;
    } else if (arg == "--baseline") {
      if (const char* v = next()) baseline_path = v;
    } else if (arg == "--update-baseline") {
      if (const char* v = next()) update_path = v;
    } else if (arg == "--list-hot") {
      list_hot = true;
    } else {
      std::fprintf(stderr,
                   "usage: pp_analyze --root <repo-root> "
                   "[--baseline <file>] [--update-baseline <file>] "
                   "[--list-hot]\n");
      return 2;
    }
  }
  if (root.empty()) {
    std::fprintf(stderr, "pp_analyze: --root is required\n");
    return 2;
  }

  const ProjectIndex idx =
      ProjectIndex::load(root, {"src", "bench", "examples", "tests"});

  if (list_hot) {
    for (const std::size_t fi : idx.hot_closure({"sim", "net", "proxy", "exp"})) {
      std::printf("%s\n", idx.files()[fi].rel.c_str());
    }
    return 0;
  }

  std::vector<Finding> findings = run_all_rules(idx);

  if (!update_path.empty()) {
    std::ofstream out(update_path);
    out << render_baseline(idx, findings);
    std::printf("pp_analyze: wrote %zu baseline entr%s to %s\n",
                findings.size(), findings.size() == 1 ? "y" : "ies",
                update_path.c_str());
    return 0;
  }

  std::vector<BaselineEntry> baseline;
  if (!baseline_path.empty() &&
      !load_baseline(baseline_path, baseline)) {
    std::fprintf(stderr, "pp_analyze: cannot read baseline %s\n",
                 baseline_path.c_str());
    return 2;
  }
  const std::vector<BaselineEntry> stale =
      apply_baseline(idx, baseline, findings);

  for (const BaselineEntry& e : stale) {
    std::fprintf(stderr,
                 "pp_analyze: stale baseline entry (fixed? remove it): "
                 "%s\t%s\t%s\n",
                 e.rule.c_str(), e.file.c_str(), e.line_text.c_str());
  }
  for (const Finding& v : findings) {
    std::printf("%s:%d: [%s] %s\n", v.file.c_str(), v.line, v.rule.c_str(),
                v.message.c_str());
  }
  if (!findings.empty()) {
    std::printf("pp_analyze: %zu new finding(s) not in baseline\n",
                findings.size());
    return 1;
  }
  std::printf("pp_analyze: clean (%zu files, %zu baselined)\n",
              idx.files().size(), baseline.size() - stale.size());
  return 0;
}
