#include "bench/report.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iterator>

namespace pp::bench {

namespace {

std::string fmt_double(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", precision, v);
  return buf;
}

// Quoting is done with append rather than `"\"" + s + "\""`: GCC 12 -O3
// misfires -Wrestrict on const char* + rvalue-string and the build is
// -Werror.
void append_quoted(std::string& out, const std::string& s) {
  out.push_back('"');
  out.append(s);
  out.push_back('"');
}

Report::Cell make_text_cell(const std::string& column, std::string text) {
  Report::Cell c;
  c.column = column;
  append_quoted(c.json, json_escape(text));
  c.text = std::move(text);
  c.numeric = false;
  return c;
}

Report::Cell make_num_cell(const std::string& column, std::string text,
                           bool finite) {
  Report::Cell c;
  c.column = column;
  // Infinities/NaNs have no JSON number form; quote them.
  c.json = finite ? text : "\"" + text + "\"";
  c.text = std::move(text);
  c.numeric = true;
  return c;
}

}  // namespace

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char raw : s) {
    const unsigned char ch = static_cast<unsigned char>(raw);
    switch (ch) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (ch < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", ch);
          out += buf;
        } else {
          out += raw;
        }
    }
  }
  return out;
}

Report::Row& Report::Row::cell(const std::string& column,
                               const std::string& v) {
  cells_.push_back(make_text_cell(column, v));
  return *this;
}

Report::Row& Report::Row::cell(const std::string& column, const char* v) {
  cells_.push_back(make_text_cell(column, v));
  return *this;
}

Report::Row& Report::Row::cell(const std::string& column, double v,
                               int precision) {
  cells_.push_back(
      make_num_cell(column, fmt_double(v, precision), std::isfinite(v)));
  return *this;
}

Report::Row& Report::Row::cell(const std::string& column, std::uint64_t v) {
  cells_.push_back(make_num_cell(column, std::to_string(v), true));
  return *this;
}

Report::Row& Report::Row::cell(const std::string& column, std::int64_t v) {
  cells_.push_back(make_num_cell(column, std::to_string(v), true));
  return *this;
}

Report::Row& Report::Row::cell(const std::string& column, int v) {
  return cell(column, static_cast<std::int64_t>(v));
}

Report::Row& Report::Row::cell(const std::string& column, unsigned v) {
  return cell(column, static_cast<std::uint64_t>(v));
}

Report::Section& Report::section(const std::string& name) {
  for (Section& s : sections_) {
    if (s.name == name) return s;
  }
  sections_.emplace_back();
  sections_.back().name = name;
  return sections_.back();
}

Report::Section& Report::section_tail() {
  if (sections_.empty()) return section();
  return sections_.back();
}

void Report::print(std::FILE* out) const {
  std::fprintf(out, "\n=== %s ===\n", title_.c_str());
  for (const Section& sec : sections_) {
    if (!sec.name.empty()) std::fprintf(out, "\n--- %s ---\n", sec.name.c_str());
    // Column order: first-seen across the section's rows.
    std::vector<std::string> cols;
    for (const Row& row : sec.rows) {
      for (const Cell& c : row.cells_) {
        if (std::find(cols.begin(), cols.end(), c.column) == cols.end()) {
          cols.push_back(c.column);
        }
      }
    }
    std::vector<std::size_t> width(cols.size());
    std::vector<bool> numeric(cols.size(), true);
    for (std::size_t i = 0; i < cols.size(); ++i) width[i] = cols[i].size();
    for (const Row& row : sec.rows) {
      for (const Cell& c : row.cells_) {
        const auto it = std::find(cols.begin(), cols.end(), c.column);
        const auto i = static_cast<std::size_t>(it - cols.begin());
        width[i] = std::max(width[i], c.text.size());
        if (!c.numeric) numeric[i] = false;
      }
    }
    for (std::size_t i = 0; i < cols.size(); ++i) {
      std::fprintf(out, i ? "  %-*s" : "%-*s", static_cast<int>(width[i]),
                   cols[i].c_str());
    }
    std::fprintf(out, "\n");
    for (const Row& row : sec.rows) {
      for (std::size_t i = 0; i < cols.size(); ++i) {
        const Cell* cell = nullptr;
        for (const Cell& c : row.cells_) {
          if (c.column == cols[i]) {
            cell = &c;
            break;
          }
        }
        const std::string& text = cell ? cell->text : std::string{"-"};
        const bool right = numeric[i] && cell;
        std::fprintf(out, i ? "  %*s" : "%*s",
                     right ? static_cast<int>(width[i])
                           : -static_cast<int>(width[i]),
                     text.c_str());
      }
      std::fprintf(out, "\n");
    }
  }
  for (const std::string& n : notes_) std::fprintf(out, "%s\n", n.c_str());
}

std::string Report::json() const {
  std::string out = "{\"title\":\"" + json_escape(title_) + "\",\"sections\":[";
  bool first_sec = true;
  for (const Section& sec : sections_) {
    if (!first_sec) out += ",";
    first_sec = false;
    out += "{\"name\":\"" + json_escape(sec.name) + "\",\"rows\":[";
    bool first_row = true;
    for (const Row& row : sec.rows) {
      if (!first_row) out += ",";
      first_row = false;
      out += "{";
      bool first_cell = true;
      for (const Cell& c : row.cells_) {
        if (!first_cell) out += ",";
        first_cell = false;
        append_quoted(out, json_escape(c.column));
        out.push_back(':');
        out += c.json;
      }
      out += "}";
    }
    out += "]}";
  }
  out += "],\"notes\":[";
  bool first_note = true;
  for (const std::string& n : notes_) {
    if (!first_note) out += ",";
    first_note = false;
    append_quoted(out, json_escape(n));
  }
  out += "]}";
  return out;
}

int check_baseline(const char* prog, const std::string& path,
                   const std::vector<GateRow>& rows, double default_tolerance) {
  std::ifstream in{path};
  if (!in) {
    std::fprintf(stderr, "%s: cannot read baseline %s\n", prog, path.c_str());
    return 2;
  }
  const std::string doc{std::istreambuf_iterator<char>{in}, {}};
  const char* env = std::getenv("PP_PERF_TOLERANCE");
  const double tolerance = env ? std::strtod(env, nullptr) : default_tolerance;
  int failures = 0;
  for (const GateRow& r : rows) {
    const std::string tag = "\"bench\":\"" + r.bench + "\"";
    const std::string field = "\"" + r.key + "\":";
    const std::size_t row = doc.find(tag);
    const std::size_t val =
        row == std::string::npos ? row : doc.find(field, row);
    const double base = val == std::string::npos
                            ? -1
                            : std::strtod(doc.c_str() + val + field.size(),
                                          nullptr);
    const double floor = base * (1.0 - tolerance);
    const bool ok = base > 0 && r.measured >= floor;
    std::printf("%-16s %12.0f %s  baseline %12.0f  floor %12.0f  %s\n",
                r.bench.c_str(), r.measured, r.key.c_str(), base, floor,
                base <= 0 ? "MISSING" : ok ? "OK" : "REGRESSED");
    if (!ok) ++failures;
  }
  if (failures == 0) return 0;
  std::fprintf(stderr,
               "%s: %d row(s) missing or regressed beyond %.0f%% "
               "(set PP_PERF_TOLERANCE to adjust)\n",
               prog, failures, tolerance * 100.0);
  return 1;
}

}  // namespace pp::bench
