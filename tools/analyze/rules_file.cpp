// Single-file rule families: the determinism/resource rules plus
// check-side-effect and dynamic-cast.  See rules.hpp for the roster.
#include <algorithm>
#include <cctype>

#include "analyze/rules.hpp"

namespace pp::analyze {

namespace {

const char* kTimeMsg = "wall clock; use sim::Time from the simulator";
const char* kRngMsg = "use sim::Rng (simulator-owned, seeded)";

}  // namespace

void collect_unordered_vars(const std::string& code,
                            std::set<std::string>& names) {
  for (const char* kw : {"unordered_map", "unordered_set"}) {
    std::size_t pos = 0;
    while ((pos = code.find(kw, pos)) != std::string::npos) {
      if (!token_at(code, pos, kw)) {
        ++pos;
        continue;
      }
      std::size_t i = pos + std::string(kw).size();
      pos = i;
      i = skip_ws(code, i);
      if (i >= code.size() || code[i] != '<') continue;  // e.g. using-decl
      const std::size_t close = match_group(code, i);
      if (close == std::string::npos) continue;
      i = skip_ws(code, close + 1);
      if (i < code.size() && code[i] == '&') i = skip_ws(code, i + 1);
      std::string name;
      while (i < code.size() && ident_char(code[i])) name += code[i++];
      if (!name.empty()) names.insert(name);
    }
  }
}

void rule_wall_clock_randomness(const FileScan& f,
                                std::vector<Finding>& out) {
  struct Ban {
    const char* rule;
    const char* word;
    bool call_only;  // only when followed by '('
    const char* msg_prefix;
  };
  static const Ban kBans[] = {
      {"wall-clock", "system_clock", false, "wall clock"},
      {"wall-clock", "high_resolution_clock", false, "wall clock"},
      {"wall-clock", "steady_clock", false, "wall clock"},
      {"wall-clock", "gettimeofday", false, "wall clock"},
      {"wall-clock", "clock_gettime", false, "wall clock"},
      {"wall-clock", "time", true, "wall clock"},
      {"randomness", "rand", true, "unseeded randomness"},
      {"randomness", "srand", false, "unseeded randomness"},
      {"randomness", "random_device", false, "nondeterministic entropy"},
      {"randomness", "mt19937", false, "std random engine"},
      {"randomness", "mt19937_64", false, "std random engine"},
      {"randomness", "minstd_rand", false, "std random engine"},
      {"randomness", "default_random_engine", false, "std random engine"},
  };
  for (const Ban& b : kBans) {
    std::size_t pos = 0;
    const std::string word = b.word;
    while ((pos = f.code.find(word, pos)) != std::string::npos) {
      const std::size_t here = pos;
      pos += word.size();
      if (!token_at(f.code, here, word)) continue;
      if (b.call_only) {
        const std::size_t after = skip_ws(f.code, here + word.size());
        if (after >= f.code.size() || f.code[after] != '(') continue;
        // A *declaration* of a function with this name (preceded by a type
        // identifier) is not a call of the banned libc function.
        std::size_t before = here;
        while (before > 0 && std::isspace(static_cast<unsigned char>(
                                 f.code[before - 1]))) {
          --before;
        }
        const bool std_qualified =
            before >= 5 && f.code.compare(before - 5, 5, "std::") == 0;
        if (!std_qualified && before > 0 &&
            (ident_char(f.code[before - 1]) || f.code[before - 1] == ':' ||
             f.code[before - 1] == '.' || f.code[before - 1] == '>' ||
             f.code[before - 1] == '&' || f.code[before - 1] == '*')) {
          // Member access (x.time()), a different namespace, or a
          // declaration preceded by a return type — not the libc call.
          continue;
        }
      }
      const std::string msg =
          std::string{b.msg_prefix} + "; " +
          (std::string{b.rule} == "wall-clock"
               ? "sim::Time is the only clock"
               : kRngMsg);
      (void)kTimeMsg;
      out.push_back({f.rel, line_of(f.line_starts, here), b.rule, msg});
    }
  }
}

void rule_new_delete(const FileScan& f, std::vector<Finding>& out) {
  std::size_t pos = 0;
  while ((pos = f.code.find("new", pos)) != std::string::npos) {
    const std::size_t here = pos;
    pos += 3;
    if (!token_at(f.code, here, "new")) continue;
    out.push_back({f.rel, line_of(f.line_starts, here), "raw-new",
                   "naked new; use make_unique/make_shared or a container"});
  }
  pos = 0;
  while ((pos = f.code.find("delete", pos)) != std::string::npos) {
    const std::size_t here = pos;
    pos += 6;
    if (!token_at(f.code, here, "delete")) continue;
    // `= delete` (deleted special member) is idiomatic and allowed.
    std::size_t before = here;
    while (before > 0 &&
           std::isspace(static_cast<unsigned char>(f.code[before - 1]))) {
      --before;
    }
    if (before > 0 && f.code[before - 1] == '=') continue;
    out.push_back({f.rel, line_of(f.line_starts, here), "raw-delete",
                   "naked delete; use RAII ownership"});
  }
}

void rule_unordered_iter(const FileScan& f,
                         const std::set<std::string>& unordered_vars,
                         std::vector<Finding>& out) {
  if (unordered_vars.empty()) return;
  std::size_t pos = 0;
  while ((pos = f.code.find("for", pos)) != std::string::npos) {
    const std::size_t here = pos;
    pos += 3;
    if (!token_at(f.code, here, "for")) continue;
    std::size_t i = skip_ws(f.code, here + 3);
    if (i >= f.code.size() || f.code[i] != '(') continue;
    // Find the ':' at parenthesis depth 1 (range-for); a ';' first means a
    // classic for loop.
    int depth = 0;
    std::size_t colon = std::string::npos, close = std::string::npos;
    for (std::size_t j = i; j < f.code.size(); ++j) {
      const char c = f.code[j];
      if (c == '(') ++depth;
      else if (c == ')') {
        --depth;
        if (depth == 0) {
          close = j;
          break;
        }
      } else if (c == ';' && depth == 1) {
        break;  // classic for
      } else if (c == ':' && depth == 1 && colon == std::string::npos) {
        // ignore :: qualifiers
        const bool dbl = (j + 1 < f.code.size() && f.code[j + 1] == ':') ||
                         (j > 0 && f.code[j - 1] == ':');
        if (!dbl) colon = j;
      }
    }
    if (colon == std::string::npos || close == std::string::npos) continue;
    const std::string range = f.code.substr(colon + 1, close - colon - 1);
    // A call in the range expression (span(), ...) means the container is
    // already being adapted.
    if (range.find('(') != std::string::npos) continue;
    // Last identifier of the range expression is the container name.
    std::size_t e = range.size();
    while (e > 0 &&
           std::isspace(static_cast<unsigned char>(range[e - 1]))) {
      --e;
    }
    std::size_t s = e;
    while (s > 0 && ident_char(range[s - 1])) --s;
    const std::string name = range.substr(s, e - s);
    if (unordered_vars.count(name) == 0) continue;
    out.push_back(
        {f.rel, line_of(f.line_starts, here), "unordered-iter",
         "range-for over unordered container '" + name +
             "'; walk an id-indexed table or an ordered container "
             "instead"});
  }
}

void rule_naked_duration(const FileScan& f, std::vector<Finding>& out) {
  static const char* kTypes[] = {"int",      "long",     "short",
                                 "unsigned", "double",   "float",
                                 "int32_t",  "uint32_t", "int64_t",
                                 "uint64_t", "size_t"};
  static const char* kSuffixes[] = {"_ns", "_us", "_ms"};
  std::size_t i = 0;
  const std::string& t = f.code;
  while (i < t.size()) {
    if (!ident_char(t[i])) {
      ++i;
      continue;
    }
    std::size_t s = i;
    while (i < t.size() && ident_char(t[i])) ++i;
    const std::string word = t.substr(s, i - s);
    bool is_type = false;
    for (const char* ty : kTypes) {
      if (word == ty) {
        is_type = true;
        break;
      }
    }
    if (!is_type) continue;
    // Next identifier (skipping cv/ref noise) is the declared name.
    std::size_t j = skip_ws(t, i);
    while (j < t.size() && (t[j] == '&' || t[j] == '*')) {
      j = skip_ws(t, j + 1);
    }
    std::size_t ns = j;
    while (j < t.size() && ident_char(t[j])) ++j;
    const std::string name = t.substr(ns, j - ns);
    if (name.empty()) continue;
    bool suffixed = false;
    for (const char* suf : kSuffixes) {
      const std::string sfx = suf;
      if (name.size() > sfx.size() &&
          name.compare(name.size() - sfx.size(), sfx.size(), sfx) == 0) {
        suffixed = true;
        break;
      }
    }
    if (!suffixed) continue;
    // A '(' right after the name is a function declaration (count_ns()
    // style accessors) — durations are only banned as stored variables.
    const std::size_t after = skip_ws(t, j);
    if (after < t.size() && t[after] == '(') continue;
    out.push_back({f.rel, line_of(f.line_starts, ns), "naked-duration",
                   "raw arithmetic duration '" + name +
                       "'; use sim::Time/sim::Duration"});
  }
}

namespace {

// True when the balanced-paren argument text of a PP_CHECK contains a
// mutation: ++/--, or any assignment operator.  String contents are
// already blanked in the stripped view, so a '=' inside the component
// string cannot trip this.
bool has_side_effect(const std::string& a, std::size_t* where) {
  for (std::size_t i = 0; i + 1 < a.size(); ++i) {
    if ((a[i] == '+' && a[i + 1] == '+') ||
        (a[i] == '-' && a[i + 1] == '-')) {
      *where = i;
      return true;
    }
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i] != '=') continue;
    const char next = i + 1 < a.size() ? a[i + 1] : '\0';
    if (next == '=') {
      ++i;  // '==' comparison; skip both
      continue;
    }
    const char prev = i > 0 ? a[i - 1] : '\0';
    if (prev == '=' || prev == '!' || prev == '<' || prev == '>') {
      // '<=' '>=' '!=' comparisons.  '<<=' / '>>=' ARE assignments:
      const char prev2 = i > 1 ? a[i - 2] : '\0';
      if (!((prev == '<' && prev2 == '<') || (prev == '>' && prev2 == '>')))
        continue;
    }
    if (prev == '[') continue;  // lambda capture [=]
    *where = i;
    return true;
  }
  return false;
}

}  // namespace

void rule_check_side_effect(const FileScan& f, std::vector<Finding>& out) {
  for (const char* macro : {"PP_CHECK", "PP_CHECK_AT"}) {
    std::size_t pos = 0;
    const std::string word = macro;
    while ((pos = f.code.find(word, pos)) != std::string::npos) {
      const std::size_t here = pos;
      pos += word.size();
      if (!token_at(f.code, here, word)) continue;
      // PP_CHECK_AT also matches the PP_CHECK scan; let its own pass
      // handle it.
      if (word == "PP_CHECK" && pos < f.code.size() && f.code[pos] == '_')
        continue;
      const std::size_t open = skip_ws(f.code, here + word.size());
      if (open >= f.code.size() || f.code[open] != '(') continue;
      const std::size_t close = match_group(f.code, open);
      if (close == std::string::npos) continue;
      const std::string args =
          f.code.substr(open + 1, close - open - 1);
      std::size_t where = 0;
      if (!has_side_effect(args, &where)) continue;
      out.push_back(
          {f.rel, line_of(f.line_starts, open + 1 + where),
           "check-side-effect",
           std::string{macro} +
               " argument mutates state (++/--/assignment); checks must "
               "be removable without changing behaviour"});
    }
  }
}

void rule_dynamic_cast(const FileScan& f, std::vector<Finding>& out) {
  if (f.rel.compare(0, 4, "src/") != 0) return;
  for (const char* cast : {"dynamic_cast", "dynamic_pointer_cast"}) {
    std::size_t pos = 0;
    const std::string word = cast;
    while ((pos = f.code.find(word, pos)) != std::string::npos) {
      const std::size_t here = pos;
      pos += word.size();
      if (!token_at(f.code, here, word)) continue;
      out.push_back({f.rel, line_of(f.line_starts, here), "dynamic-cast",
                     word + " recovers a type at run time; tag the value "
                            "(as net::Packet::app does) instead"});
    }
  }
}

void run_file_rules(const FileScan& f, const std::string* sibling_code,
                    std::vector<Finding>& out) {
  std::set<std::string> unordered_vars;
  collect_unordered_vars(f.code, unordered_vars);
  if (sibling_code) collect_unordered_vars(*sibling_code, unordered_vars);
  rule_wall_clock_randomness(f, out);
  rule_new_delete(f, out);
  rule_unordered_iter(f, unordered_vars, out);
  rule_naked_duration(f, out);
  rule_check_side_effect(f, out);
  rule_dynamic_cast(f, out);
}

}  // namespace pp::analyze
