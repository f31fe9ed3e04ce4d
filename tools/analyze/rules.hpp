// Rule registry for pp_analyze.
//
// Two rule shapes share one Finding type:
//
//   * file rules see a single FileScan — the determinism families
//     (wall-clock, randomness, unordered-iter, raw-new/raw-delete,
//     naked-duration) plus check-side-effect and dynamic-cast (src/ only:
//     a packet's tag, not RTTI, says what it carries).
//   * project rules see the whole ProjectIndex — rng-stream-unique,
//     obs-name-consistency, layer-dag, hot-path-alloc need the cross-file
//     symbol/include view.
//
// Every finding is suppressible at the site with
//   // pp-lint: allow(<rule>): <justification>
// and pre-existing accepted findings are carried by the committed baseline
// (see baseline.hpp).  Rule ids are stable: they appear in allow comments
// and baseline entries.
#pragma once

#include <set>
#include <string>
#include <vector>

#include "analyze/index.hpp"
#include "analyze/lexer.hpp"

namespace pp::analyze {

struct Finding {
  std::string file;  // FileScan::rel
  int line = 0;
  std::string rule;
  std::string message;
};

// -- single-file rules -------------------------------------------------------

// Names of variables declared with an unordered container type in this
// stripped text (for unordered-iter; a .cpp also collects from its sibling
// header, since member loops iterate containers declared there).
void collect_unordered_vars(const std::string& code,
                            std::set<std::string>& names);

void rule_wall_clock_randomness(const FileScan& f, std::vector<Finding>& out);
void rule_new_delete(const FileScan& f, std::vector<Finding>& out);
void rule_unordered_iter(const FileScan& f,
                         const std::set<std::string>& unordered_vars,
                         std::vector<Finding>& out);
void rule_naked_duration(const FileScan& f, std::vector<Finding>& out);
void rule_check_side_effect(const FileScan& f, std::vector<Finding>& out);
void rule_dynamic_cast(const FileScan& f, std::vector<Finding>& out);

// All single-file rules against one file (collecting unordered vars from
// `sibling_code` too when non-null).
void run_file_rules(const FileScan& f, const std::string* sibling_code,
                    std::vector<Finding>& out);

// -- project rules ----------------------------------------------------------

void rule_rng_stream_unique(const ProjectIndex& idx,
                            std::vector<Finding>& out);
void rule_obs_name_consistency(const ProjectIndex& idx,
                               std::vector<Finding>& out);
void rule_layer_dag(const ProjectIndex& idx, std::vector<Finding>& out);
void rule_hot_path_alloc(const ProjectIndex& idx, std::vector<Finding>& out);

// All project rules.
void run_project_rules(const ProjectIndex& idx, std::vector<Finding>& out);

// File + project rules over the whole index, allow-comments already
// applied, sorted by (file, line, rule).  This is pp_analyze's rule set.
std::vector<Finding> run_all_rules(const ProjectIndex& idx);

// Drop findings suppressed by an adjacent allow comment.
void apply_allow_comments(const ProjectIndex& idx,
                          std::vector<Finding>& findings);

}  // namespace pp::analyze
