// Cross-file rule families.  Each one enforces a project invariant that a
// single-file scan cannot see:
//
//   rng-stream-unique     every named RNG stream tag (k*StreamTag
//                         constants, and integer literals xor'd into a
//                         sim::Rng seed) must be distinct project-wide —
//                         a duplicate silently correlates two
//                         "independent" chains and breaks salt-invariance
//   obs-name-consistency  every literal name passed to find_counter/
//                         find_time_gauge/find_histogram must match a
//                         registration site (counter()/time_gauge()/
//                         histogram() with the same literal) somewhere in
//                         the project — a typo'd name silently reads a
//                         null metric
//   layer-dag             include edges between src/ modules must follow
//                         the declared dependency DAG (sim → net →
//                         transport → proxy/client → exp; obs and check
//                         leaf-usable everywhere)
//   hot-path-alloc        allocating constructs (std::function, unreserved
//                         push_back in loops, string building) are banned
//                         in the hot closure: src/sim + src/net plus
//                         everything they transitively include
#include <algorithm>
#include <cctype>
#include <cstdint>
#include <cstdio>
#include <map>

#include "analyze/rules.hpp"

namespace pp::analyze {

namespace {

// Parse an integer literal (decimal or 0x hex, with optional ' digit
// separators and u/l suffixes) starting at `i`.  Returns true and advances
// `i` past the literal on success.
bool parse_int_literal(const std::string& t, std::size_t& i,
                       std::uint64_t* value) {
  std::size_t j = i;
  bool hex = false;
  if (j + 1 < t.size() && t[j] == '0' && (t[j + 1] == 'x' || t[j + 1] == 'X')) {
    hex = true;
    j += 2;
  }
  std::uint64_t v = 0;
  bool any = false;
  while (j < t.size()) {
    const char c = t[j];
    if (c == '\'') {
      ++j;
      continue;
    }
    int d = -1;
    if (c >= '0' && c <= '9') d = c - '0';
    else if (hex && c >= 'a' && c <= 'f') d = 10 + (c - 'a');
    else if (hex && c >= 'A' && c <= 'F') d = 10 + (c - 'A');
    if (d < 0) break;
    v = v * (hex ? 16 : 10) + static_cast<std::uint64_t>(d);
    any = true;
    ++j;
  }
  if (!any) return false;
  while (j < t.size() && (t[j] == 'u' || t[j] == 'U' || t[j] == 'l' ||
                          t[j] == 'L')) {
    ++j;
  }
  if (j < t.size() && ident_char(t[j])) return false;  // e.g. 0x12garbage
  i = j;
  *value = v;
  return true;
}

std::string hex_str(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "0x%llx",
                static_cast<unsigned long long>(v));
  return buf;
}

struct StreamSite {
  std::size_t file;
  std::size_t pos;
  std::string name;  // tag identifier, or "<literal>" for inline seeds
};

}  // namespace

void rule_rng_stream_unique(const ProjectIndex& idx,
                            std::vector<Finding>& out) {
  std::map<std::uint64_t, std::vector<StreamSite>> by_value;

  for (std::size_t fi = 0; fi < idx.files().size(); ++fi) {
    const FileScan& f = idx.files()[fi];
    const std::string& t = f.code;

    // Definition sites: <ident ending in StreamTag> = <integer literal>.
    std::size_t pos = 0;
    while ((pos = t.find("StreamTag", pos)) != std::string::npos) {
      std::size_t s = pos;
      pos += 9;
      while (s > 0 && ident_char(t[s - 1])) --s;
      const std::size_t e = s + (pos - s);
      if (e < t.size() && ident_char(t[e])) continue;  // longer identifier
      const std::string name = t.substr(s, e - s);
      std::size_t i = skip_ws(t, e);
      if (i >= t.size() || t[i] != '=') continue;  // usage, not definition
      i = skip_ws(t, i + 1);
      std::uint64_t v = 0;
      if (!parse_int_literal(t, i, &v)) continue;
      if (v == 0) {
        out.push_back({f.rel, line_of(f.line_starts, s), "rng-stream-unique",
                       "stream tag '" + name +
                           "' is 0: xor-identity aliases the root seed "
                           "stream"});
      }
      by_value[v].push_back({fi, s, name});
    }

    // Inline seeds: an integer literal xor'd inside a Rng{...}/Rng(...)
    // construction.
    pos = 0;
    while ((pos = t.find("Rng", pos)) != std::string::npos) {
      const std::size_t here = pos;
      pos += 3;
      if (!token_at(t, here, "Rng")) continue;
      const std::size_t open = skip_ws(t, here + 3);
      if (open >= t.size() || (t[open] != '{' && t[open] != '(')) continue;
      const std::size_t close = match_group(t, open);
      if (close == std::string::npos) continue;
      for (std::size_t j = open + 1; j < close; ++j) {
        if (t[j] != '^') continue;
        std::size_t i = skip_ws(t, j + 1);
        std::uint64_t v = 0;
        if (i < close && parse_int_literal(t, i, &v)) {
          by_value[v].push_back({fi, j, "<literal>"});
        }
      }
    }
  }

  for (const auto& [value, sites] : by_value) {
    if (sites.size() < 2) continue;
    for (const StreamSite& s : sites) {
      const FileScan& f = idx.files()[s.file];
      std::string others;
      for (const StreamSite& o : sites) {
        if (&o == &s) continue;
        if (!others.empty()) others += ", ";
        others += idx.files()[o.file].rel + ":" +
                  std::to_string(line_of(idx.files()[o.file].line_starts,
                                         o.pos));
      }
      out.push_back({f.rel, line_of(f.line_starts, s.pos),
                     "rng-stream-unique",
                     "RNG stream tag " + hex_str(value) + " ('" + s.name +
                         "') also used at " + others +
                         "; duplicate tags correlate \"independent\" "
                         "streams"});
    }
  }
}

namespace {

// When `pos` is a method-call site `.name(` / `->name(` whose sole
// argument is one string literal, return that literal's text.
bool literal_only_arg(const FileScan& f, std::size_t name_pos,
                      const std::string& name, std::string* lit_text,
                      std::size_t* lit_pos) {
  if (!token_at(f.code, name_pos, name)) return false;
  if (name_pos == 0) return false;
  const char prev = f.code[name_pos - 1];
  if (prev != '.' && prev != '>') return false;  // require method call
  const std::size_t open = skip_ws(f.code, name_pos + name.size());
  if (open >= f.code.size() || f.code[open] != '(') return false;
  const std::size_t q = skip_ws(f.code, open + 1);
  if (q >= f.code.size() || f.code[q] != '"') return false;
  for (const StringLit& s : f.strings) {
    if (s.pos != q) continue;
    const std::size_t after = skip_ws(f.code, q + s.text.size() + 2);
    if (after >= f.code.size() || f.code[after] != ')') return false;
    *lit_text = s.text;
    *lit_pos = q;
    return true;
  }
  return false;
}

}  // namespace

void rule_obs_name_consistency(const ProjectIndex& idx,
                               std::vector<Finding>& out) {
  // kind index: 0 counter, 1 time_gauge, 2 histogram.
  static const char* kCreate[] = {"counter", "time_gauge", "histogram"};
  static const char* kFind[] = {"find_counter", "find_time_gauge",
                                "find_histogram"};
  std::set<std::string> created[3];

  for (const FileScan& f : idx.files()) {
    for (int k = 0; k < 3; ++k) {
      std::size_t pos = 0;
      const std::string word = kCreate[k];
      while ((pos = f.code.find(word, pos)) != std::string::npos) {
        const std::size_t here = pos;
        pos += word.size();
        std::string lit;
        std::size_t lp = 0;
        if (literal_only_arg(f, here, word, &lit, &lp)) {
          created[k].insert(lit);
        }
      }
    }
  }

  for (std::size_t fi = 0; fi < idx.files().size(); ++fi) {
    const FileScan& f = idx.files()[fi];
    for (int k = 0; k < 3; ++k) {
      std::size_t pos = 0;
      const std::string word = kFind[k];
      while ((pos = f.code.find(word, pos)) != std::string::npos) {
        const std::size_t here = pos;
        pos += word.size();
        std::string lit;
        std::size_t lp = 0;
        if (!literal_only_arg(f, here, word, &lit, &lp)) continue;
        if (created[k].count(lit)) continue;
        out.push_back(
            {f.rel, line_of(f.line_starts, lp), "obs-name-consistency",
             std::string{kFind[k]} + "(\"" + lit +
                 "\") does not match any " + kCreate[k] +
                 "(\"...\") registration site in the project; a typo'd "
                 "name silently reads a null metric"});
      }
    }
  }
}

namespace {

// The declared module DAG.  A module may always include itself and the
// foundation trio (sim/obs/check, which may also include each other); the
// table lists its additional allowed dependencies.  exp and src/bench are
// top-of-stack harness layers and may include everything.
struct Layer {
  const char* module;
  std::vector<const char*> deps;
  bool any = false;
};

const std::vector<Layer>& layer_table() {
  static const std::vector<Layer> kTable = {
      {"sim", {}, false},
      {"obs", {}, false},
      {"check", {}, false},
      {"energy", {}, false},
      {"net", {}, false},
      {"channel", {"net"}, false},
      {"transport", {"net"}, false},
      {"fault", {"channel", "net"}, false},
      {"workload", {"transport", "net"}, false},
      {"proxy", {"channel", "transport", "net"}, false},
      {"client", {"proxy", "energy", "net", "transport", "channel"}, false},
      {"trace",
       {"client", "proxy", "energy", "net", "transport", "channel"},
       false},
      {"exp", {}, true},
      {"bench", {}, true},
  };
  return kTable;
}

bool is_foundation(const std::string& m) {
  return m == "sim" || m == "obs" || m == "check";
}

}  // namespace

void rule_layer_dag(const ProjectIndex& idx, std::vector<Finding>& out) {
  std::map<std::string, const Layer*> table;
  for (const Layer& l : layer_table()) table.emplace(l.module, &l);

  for (std::size_t fi = 0; fi < idx.files().size(); ++fi) {
    const FileScan& f = idx.files()[fi];
    const std::string& mod = idx.module_of(fi);
    if (mod.empty()) continue;  // bench/, examples/, tests/ are above the DAG
    const auto it = table.find(mod);
    if (it == table.end()) {
      out.push_back({f.rel, 1, "layer-dag",
                     "module 'src/" + mod +
                         "' is not in the layer table (tools/analyze/"
                         "rules_project.cpp); declare its dependencies"});
      continue;
    }
    const Layer& layer = *it->second;
    for (const Include& inc : idx.includes()[fi]) {
      const std::string dep = idx.module_of_include(inc.target);
      if (dep.empty() || dep == mod) continue;
      if (layer.any) continue;
      // sim/obs/check are leaf-usable everywhere (including each other).
      if (is_foundation(dep)) continue;
      bool ok = false;
      for (const char* d : layer.deps) {
        if (dep == d) {
          ok = true;
          break;
        }
      }
      if (ok) continue;
      std::string allowed = "sim, obs, check";
      for (const char* d : layer.deps) allowed += std::string{", "} + d;
      out.push_back({f.rel, line_of(f.line_starts, inc.pos), "layer-dag",
                     "src/" + mod + " may not include \"" + inc.target +
                         "\" (src/" + dep + "); allowed dependencies: " +
                         allowed});
    }
  }
}

namespace {

// Byte ranges of loop bodies (for/while/do, braced or single-statement).
std::vector<std::pair<std::size_t, std::size_t>> loop_regions(
    const std::string& t) {
  std::vector<std::pair<std::size_t, std::size_t>> regions;
  for (const char* kw : {"for", "while", "do"}) {
    const std::string word = kw;
    std::size_t pos = 0;
    while ((pos = t.find(word, pos)) != std::string::npos) {
      const std::size_t here = pos;
      pos += word.size();
      if (!token_at(t, here, word)) continue;
      std::size_t body = 0;
      if (word == "do") {
        body = skip_ws(t, here + word.size());
      } else {
        const std::size_t open = skip_ws(t, here + word.size());
        if (open >= t.size() || t[open] != '(') continue;
        const std::size_t close = match_group(t, open);
        if (close == std::string::npos) continue;
        body = skip_ws(t, close + 1);
      }
      if (body >= t.size()) continue;
      if (t[body] == '{') {
        const std::size_t end = match_group(t, body);
        if (end != std::string::npos) regions.emplace_back(body + 1, end);
      } else {
        const std::size_t semi = t.find(';', body);
        if (semi != std::string::npos) regions.emplace_back(body, semi);
      }
    }
  }
  return regions;
}

bool in_regions(
    const std::vector<std::pair<std::size_t, std::size_t>>& regions,
    std::size_t pos) {
  for (const auto& [s, e] : regions) {
    if (pos >= s && pos < e) return true;
  }
  return false;
}

// Identifier of the object expression ending just before `dot` (the '.' of
// `.push_back`, or the '>' of `->push_back`); walks back over one trailing
// [index] group.
std::string object_before(const std::string& t, std::size_t dot) {
  std::size_t i = dot;
  if (i >= 1 && t[i - 1] == '-') --i;  // '->': caller passes pos of '>'
  if (i == 0) return {};
  std::size_t e = i;
  if (t[e - 1] == ']') {
    int depth = 0;
    while (e > 0) {
      --e;
      if (t[e] == ']') ++depth;
      else if (t[e] == '[') {
        --depth;
        if (depth == 0) break;
      }
    }
  }
  std::size_t s = e;
  while (s > 0 && ident_char(t[s - 1])) --s;
  return t.substr(s, e - s);
}

}  // namespace

void rule_hot_path_alloc(const ProjectIndex& idx, std::vector<Finding>& out) {
  const std::vector<std::size_t> hot = idx.hot_closure({"sim", "net", "proxy", "exp"});

  for (const std::size_t fi : hot) {
    const FileScan& f = idx.files()[fi];
    const std::string& t = f.code;

    // a) std::function: type-erased call targets allocate per capture.
    std::size_t pos = 0;
    while ((pos = t.find("std::function", pos)) != std::string::npos) {
      const std::size_t here = pos;
      pos += 13;
      if (here > 0 && (ident_char(t[here - 1]) || t[here - 1] == ':'))
        continue;
      if (pos < t.size() && ident_char(t[pos])) continue;
      out.push_back({f.rel, line_of(f.line_starts, here), "hot-path-alloc",
                     "std::function in the hot closure allocates per "
                     "capture; use sim::EventCallback, a template "
                     "parameter, or a concrete functor"});
    }

    // b) push_back/emplace_back in a loop with no visible reserve()/
    //    resize() on the same object in this file or its header/source
    //    sibling.
    const auto regions = loop_regions(t);
    const std::string* sibling = nullptr;
    {
      std::string sib = f.rel;
      const std::size_t ext = sib.rfind('.');
      if (ext != std::string::npos) {
        sib.replace(ext, std::string::npos,
                    sib.compare(ext, std::string::npos, ".cpp") == 0
                        ? ".hpp"
                        : ".cpp");
        const int si = idx.find(sib);
        if (si >= 0) sibling = &idx.files()[static_cast<std::size_t>(si)].code;
      }
    }
    for (const char* method : {"push_back", "emplace_back"}) {
      const std::string word = method;
      pos = 0;
      while ((pos = t.find(word, pos)) != std::string::npos) {
        const std::size_t here = pos;
        pos += word.size();
        if (!token_at(t, here, word)) continue;
        if (here == 0 || (t[here - 1] != '.' && t[here - 1] != '>'))
          continue;
        if (!in_regions(regions, here)) continue;
        const std::string obj = object_before(t, here - 1);
        if (obj.empty()) continue;
        bool reserved = false;
        for (const char* grow : {".reserve", "->reserve", ".resize",
                                 "->resize"}) {
          const std::string pat = obj + grow;
          if (t.find(pat) != std::string::npos ||
              (sibling && sibling->find(pat) != std::string::npos)) {
            reserved = true;
            break;
          }
        }
        if (reserved) continue;
        out.push_back({f.rel, line_of(f.line_starts, here), "hot-path-alloc",
                       std::string{method} + " on '" + obj +
                           "' in a loop with no visible reserve(); "
                           "pre-reserve capacity or use a fixed slab"});
      }
    }

    // c) string building: std::to_string / ostringstream / operator+ on a
    //    string literal all allocate.
    for (const char* word : {"std::to_string", "ostringstream",
                             "stringstream"}) {
      const std::string w = word;
      pos = 0;
      while ((pos = t.find(w, pos)) != std::string::npos) {
        const std::size_t here = pos;
        pos += w.size();
        // Token-boundary guard: "ostringstream" must not re-match as the
        // inner "stringstream", and "xto_string" is a different name.  A
        // leading "std::" qualifier on the stream types is still a match.
        if (here > 0 && ident_char(t[here - 1])) continue;
        if (here + w.size() < t.size() && ident_char(t[here + w.size()]))
          continue;
        out.push_back({f.rel, line_of(f.line_starts, here),
                       "hot-path-alloc",
                       std::string{word} +
                           " builds a std::string (heap allocation); keep "
                           "formatting off the hot path"});
      }
    }
    for (const StringLit& s : f.strings) {
      const std::size_t close = s.pos + s.text.size() + 1;
      const std::size_t after = skip_ws(t, close + 1);
      bool concat = after < t.size() && t[after] == '+' &&
                    (after + 1 >= t.size() || t[after + 1] != '+');
      if (!concat && s.pos > 0) {
        std::size_t b = s.pos;
        while (b > 0 &&
               std::isspace(static_cast<unsigned char>(t[b - 1]))) {
          --b;
        }
        concat = b > 0 && t[b - 1] == '+' && (b < 2 || t[b - 2] != '+');
      }
      if (!concat) continue;
      out.push_back({f.rel, line_of(f.line_starts, s.pos), "hot-path-alloc",
                     "string concatenation with operator+ allocates; keep "
                     "formatting off the hot path"});
    }
  }
}

void run_project_rules(const ProjectIndex& idx, std::vector<Finding>& out) {
  rule_rng_stream_unique(idx, out);
  rule_obs_name_consistency(idx, out);
  rule_layer_dag(idx, out);
  rule_hot_path_alloc(idx, out);
}

void apply_allow_comments(const ProjectIndex& idx,
                          std::vector<Finding>& findings) {
  std::vector<Finding> kept;
  kept.reserve(findings.size());
  for (Finding& v : findings) {
    const int fi = idx.find(v.file);
    if (fi >= 0 &&
        allowlisted(idx.files()[static_cast<std::size_t>(fi)].raw_lines,
                    v.line, v.rule)) {
      continue;
    }
    kept.push_back(std::move(v));
  }
  findings = std::move(kept);
}

std::vector<Finding> run_all_rules(const ProjectIndex& idx) {
  std::vector<Finding> out;
  for (std::size_t fi = 0; fi < idx.files().size(); ++fi) {
    const FileScan& f = idx.files()[fi];
    const std::string* sibling_code = nullptr;
    std::string sib = f.rel;
    if (sib.size() > 4 && sib.compare(sib.size() - 4, 4, ".cpp") == 0) {
      sib.replace(sib.size() - 4, 4, ".hpp");
      const int si = idx.find(sib);
      if (si >= 0) {
        sibling_code = &idx.files()[static_cast<std::size_t>(si)].code;
      }
    }
    run_file_rules(f, sibling_code, out);
  }
  run_project_rules(idx, out);
  apply_allow_comments(idx, out);
  std::sort(out.begin(), out.end(), [](const Finding& a, const Finding& b) {
    if (a.file != b.file) return a.file < b.file;
    if (a.line != b.line) return a.line < b.line;
    if (a.rule != b.rule) return a.rule < b.rule;
    return a.message < b.message;
  });
  return out;
}

}  // namespace pp::analyze
