// Self-tests for the pp_analyze rule families.
//
// Each rule runs against small positive/negative fixture trees under
// tests/fixtures/analyze/ (PP_ANALYZE_FIXTURES points there).  Fixture
// trees mirror the project layout (src/<module>/...), so the project
// rules see the same shape they see in the real repo.  The positive
// fixtures double as the CI injection check: if a rule stops firing on
// its fixture, this suite fails tier-1.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "analyze/baseline.hpp"
#include "analyze/index.hpp"
#include "analyze/rules.hpp"

namespace {

using pp::analyze::apply_allow_comments;
using pp::analyze::apply_baseline;
using pp::analyze::BaselineEntry;
using pp::analyze::Finding;
using pp::analyze::finding_line_text;
using pp::analyze::ProjectIndex;

ProjectIndex load_fixture(const std::string& name) {
  return ProjectIndex::load(std::string{PP_ANALYZE_FIXTURES} + "/" + name,
                            {"src", "bench", "examples", "tests"});
}

int count_rule(const std::vector<Finding>& findings,
               const std::string& rule) {
  return static_cast<int>(
      std::count_if(findings.begin(), findings.end(),
                    [&](const Finding& f) { return f.rule == rule; }));
}

bool has_finding(const std::vector<Finding>& findings,
                 const std::string& rule, const std::string& file_suffix) {
  return std::any_of(findings.begin(), findings.end(), [&](const Finding& f) {
    return f.rule == rule && f.file.size() >= file_suffix.size() &&
           f.file.compare(f.file.size() - file_suffix.size(),
                          file_suffix.size(), file_suffix) == 0;
  });
}

// -- rng-stream-unique ------------------------------------------------------

TEST(RngStreamUnique, FlagsDuplicateTagsAcrossFiles) {
  const ProjectIndex idx = load_fixture("rng_dup");
  std::vector<Finding> out;
  pp::analyze::rule_rng_stream_unique(idx, out);
  // Both sites of the duplicated value, plus the zero tag.
  EXPECT_EQ(count_rule(out, "rng-stream-unique"), 3);
  EXPECT_TRUE(has_finding(out, "rng-stream-unique", "src/fault/tags.cpp"));
  EXPECT_TRUE(has_finding(out, "rng-stream-unique", "src/proxy/tags.cpp"));
}

TEST(RngStreamUnique, FlagsInlineLiteralCollidingWithTag) {
  const ProjectIndex idx = load_fixture("rng_inline_dup");
  std::vector<Finding> out;
  pp::analyze::rule_rng_stream_unique(idx, out);
  EXPECT_EQ(count_rule(out, "rng-stream-unique"), 2);
}

TEST(RngStreamUnique, FlagsChurnBackoffTagCollision) {
  const ProjectIndex idx = load_fixture("churn_rng");
  std::vector<Finding> out;
  pp::analyze::rule_rng_stream_unique(idx, out);
  // Both sites of the shared churn/backoff tag value.
  EXPECT_EQ(count_rule(out, "rng-stream-unique"), 2);
  EXPECT_TRUE(
      has_finding(out, "rng-stream-unique", "src/fault/churn_tags.cpp"));
  EXPECT_TRUE(
      has_finding(out, "rng-stream-unique", "src/client/assoc_tags.cpp"));
}

TEST(RngStreamUnique, CleanOnDistinctTags) {
  const ProjectIndex idx = load_fixture("rng_clean");
  std::vector<Finding> out;
  pp::analyze::rule_rng_stream_unique(idx, out);
  EXPECT_TRUE(out.empty());
}

// -- obs-name-consistency ---------------------------------------------------

TEST(ObsNameConsistency, FlagsTypoAndKindMismatch) {
  const ProjectIndex idx = load_fixture("obs_typo");
  std::vector<Finding> out;
  pp::analyze::rule_obs_name_consistency(idx, out);
  EXPECT_EQ(count_rule(out, "obs-name-consistency"), 2);
  // The typo'd name and the histogram name read through find_counter.
  bool saw_typo = false, saw_mismatch = false;
  for (const Finding& f : out) {
    if (f.message.find("proxy.burts") != std::string::npos) saw_typo = true;
    if (f.message.find("proxy.burst_bytes") != std::string::npos)
      saw_mismatch = true;
  }
  EXPECT_TRUE(saw_typo);
  EXPECT_TRUE(saw_mismatch);
}

TEST(ObsNameConsistency, FlagsChurnCounterTypo) {
  const ProjectIndex idx = load_fixture("churn_obs");
  std::vector<Finding> out;
  pp::analyze::rule_obs_name_consistency(idx, out);
  ASSERT_EQ(count_rule(out, "obs-name-consistency"), 1);
  EXPECT_NE(out[0].message.find("proxy.churn.jions"), std::string::npos);
}

TEST(ObsNameConsistency, ResolvesAcrossFilesAndSkipsDynamicNames) {
  const ProjectIndex idx = load_fixture("obs_clean");
  std::vector<Finding> out;
  pp::analyze::rule_obs_name_consistency(idx, out);
  EXPECT_TRUE(out.empty());
}

// -- check-side-effect ------------------------------------------------------

TEST(CheckSideEffect, FlagsMutationsInsideChecks) {
  const ProjectIndex idx = load_fixture("check_mut");
  std::vector<Finding> out;
  for (const auto& f : idx.files()) {
    pp::analyze::rule_check_side_effect(f, out);
  }
  // ++x, x = y, x += 2 — one finding each.
  EXPECT_EQ(count_rule(out, "check-side-effect"), 3);
}

TEST(CheckSideEffect, AcceptsComparisonsLambdasAndShifts) {
  const ProjectIndex idx = load_fixture("check_clean");
  std::vector<Finding> out;
  for (const auto& f : idx.files()) {
    pp::analyze::rule_check_side_effect(f, out);
  }
  EXPECT_TRUE(out.empty());
}

// -- layer-dag --------------------------------------------------------------

TEST(LayerDag, FlagsUpwardInclude) {
  const ProjectIndex idx = load_fixture("layer_bad");
  std::vector<Finding> out;
  pp::analyze::rule_layer_dag(idx, out);
  EXPECT_EQ(count_rule(out, "layer-dag"), 1);
  EXPECT_TRUE(has_finding(out, "layer-dag", "src/sim/uses_proxy.cpp"));
}

TEST(LayerDag, AcceptsDeclaredAndFoundationEdges) {
  const ProjectIndex idx = load_fixture("layer_clean");
  std::vector<Finding> out;
  pp::analyze::rule_layer_dag(idx, out);
  EXPECT_TRUE(out.empty());
}

TEST(LayerDag, FlagsModuleMissingFromTable) {
  const ProjectIndex idx = load_fixture("layer_unknown");
  std::vector<Finding> out;
  pp::analyze::rule_layer_dag(idx, out);
  EXPECT_EQ(count_rule(out, "layer-dag"), 1);
  EXPECT_TRUE(
      has_finding(out, "layer-dag", "src/widgets/new_module.cpp"));
}

// -- hot-path-alloc ---------------------------------------------------------

TEST(HotPathAlloc, FlagsAllocatingConstructsInHotClosure) {
  const ProjectIndex idx = load_fixture("hot_alloc");
  std::vector<Finding> out;
  pp::analyze::rule_hot_path_alloc(idx, out);
  // hot.cpp: std::function, unreserved push_back loop, std::to_string,
  // "literal" + concat.  The reserved loop is clean.
  EXPECT_EQ(count_rule(out, "hot-path-alloc"), 5);
  EXPECT_TRUE(has_finding(out, "hot-path-alloc", "src/net/hot.cpp"));
  // The closure reaches a header outside the root modules...
  EXPECT_TRUE(
      has_finding(out, "hot-path-alloc", "src/energy/pulled_in.hpp"));
  // ...but not a file nobody on the hot path includes.
  EXPECT_FALSE(has_finding(out, "hot-path-alloc", "src/energy/cold.cpp"));
}

TEST(HotPathAlloc, HotClosureFollowsIncludes) {
  const ProjectIndex idx = load_fixture("hot_alloc");
  const auto hot = idx.hot_closure({"sim", "net"});
  std::vector<std::string> rels;
  rels.reserve(hot.size());
  for (const std::size_t fi : hot) rels.push_back(idx.files()[fi].rel);
  EXPECT_NE(std::find(rels.begin(), rels.end(), "src/net/hot.cpp"),
            rels.end());
  EXPECT_NE(std::find(rels.begin(), rels.end(),
                      "src/energy/pulled_in.hpp"),
            rels.end());
  EXPECT_EQ(std::find(rels.begin(), rels.end(), "src/energy/cold.cpp"),
            rels.end());
}

// -- allow comments and baseline --------------------------------------------

TEST(Suppression, AllowCommentNeedsJustification) {
  const ProjectIndex idx = load_fixture("hot_allow");
  std::vector<Finding> out;
  pp::analyze::rule_hot_path_alloc(idx, out);
  ASSERT_EQ(out.size(), 2u);
  apply_allow_comments(idx, out);
  // The justified allow suppresses; the bare allow() does not.
  ASSERT_EQ(out.size(), 1u);
  EXPECT_NE(
      finding_line_text(idx, out[0]).find("g_unjustified"),
      std::string::npos);
}

TEST(Suppression, BaselineConsumesMatchingFindingsAndReportsStale) {
  const ProjectIndex idx = load_fixture("hot_alloc");
  std::vector<Finding> out;
  pp::analyze::rule_hot_path_alloc(idx, out);
  ASSERT_EQ(out.size(), 5u);

  std::vector<BaselineEntry> baseline;
  for (const Finding& f : out) {
    baseline.push_back({f.rule, f.file, finding_line_text(idx, f), false});
  }
  baseline.push_back(
      {"hot-path-alloc", "src/net/gone.cpp", "stale line", false});

  const auto stale = apply_baseline(idx, baseline, out);
  EXPECT_TRUE(out.empty());  // everything baselined
  ASSERT_EQ(stale.size(), 1u);
  EXPECT_EQ(stale[0].file, "src/net/gone.cpp");
}

TEST(Suppression, BaselineMatchesContentNotLineNumber) {
  const ProjectIndex idx = load_fixture("hot_alloc");
  std::vector<Finding> out;
  pp::analyze::rule_hot_path_alloc(idx, out);
  ASSERT_FALSE(out.empty());
  // An entry keyed on the same content matches even though the recorded
  // line number in the finding is irrelevant to the entry.
  Finding moved = out[0];
  std::vector<BaselineEntry> baseline{
      {moved.rule, moved.file, finding_line_text(idx, moved), false}};
  std::vector<Finding> just_one{moved};
  const auto stale = apply_baseline(idx, baseline, just_one);
  EXPECT_TRUE(just_one.empty());
  EXPECT_TRUE(stale.empty());
}

// -- per-file determinism families ------------------------------------------

TEST(FileRules, EachFamilyFiresOnItsViolation) {
  const ProjectIndex idx = load_fixture("file_rules");
  std::vector<Finding> out;
  for (const auto& f : idx.files()) {
    pp::analyze::run_file_rules(f, nullptr, out);
  }
  EXPECT_EQ(count_rule(out, "wall-clock"), 1);
  EXPECT_EQ(count_rule(out, "randomness"), 1);
  EXPECT_EQ(count_rule(out, "raw-new"), 1);
  EXPECT_EQ(count_rule(out, "raw-delete"), 1);
  EXPECT_EQ(count_rule(out, "naked-duration"), 1);
  EXPECT_EQ(count_rule(out, "unordered-iter"), 1);
  EXPECT_EQ(count_rule(out, "check-side-effect"), 0);
}

TEST(FileRules, CleanOnDeterministicIdioms) {
  const ProjectIndex idx = load_fixture("file_rules_clean");
  std::vector<Finding> out;
  for (const auto& f : idx.files()) {
    pp::analyze::run_file_rules(f, nullptr, out);
  }
  EXPECT_TRUE(out.empty());
}

// -- dynamic-cast -------------------------------------------------------------

TEST(DynamicCast, FlagsCastsInSrcOnly) {
  const ProjectIndex idx = load_fixture("dynamic_cast");
  std::vector<Finding> out;
  for (const auto& f : idx.files()) {
    pp::analyze::run_file_rules(f, nullptr, out);
  }
  EXPECT_EQ(count_rule(out, "dynamic-cast"), 2);
  EXPECT_TRUE(has_finding(out, "dynamic-cast", "src/client/recv.cpp"));
  EXPECT_FALSE(has_finding(out, "dynamic-cast", "tests/cast_test.cpp"));
}

// -- whole-project pass over a fixture tree ---------------------------------

TEST(RunAllRules, AggregatesSortsAndAppliesAllows) {
  const ProjectIndex idx = load_fixture("hot_alloc");
  const std::vector<Finding> out = pp::analyze::run_all_rules(idx);
  EXPECT_EQ(count_rule(out, "hot-path-alloc"), 5);
  EXPECT_TRUE(std::is_sorted(
      out.begin(), out.end(), [](const Finding& a, const Finding& b) {
        return a.file < b.file || (a.file == b.file && a.line <= b.line);
      }));
}

}  // namespace
