// pp::bench::Report — the single sink every bench binary renders through.
//
// A Report is pure data: a title, ordered sections, rows of named cells,
// and trailing notes.  The fixed-width table and the JSON document render
// from that one structure, so the two can never drift — and because every
// cell is formatted exactly once when it is added, bit-identical results
// render byte-identically.
//
//   Report rep{"Figure 4: ten UDP video clients"};
//   auto& sec = rep.section("burst interval: 500ms");
//   sec.row().cell("pattern", "56K").cell("avg%", s.avg, 1).cell(...);
//   rep.note("paper: 500 ms beats 100 ms everywhere");
//   rep.print();                       // the human table
//   std::string doc = rep.json();      // the machine rendering
//
// Columns are inferred per section in first-seen order; rows may omit
// trailing columns ("-" in the table, null in JSON).  Numeric cells
// right-align, strings left-align.
#pragma once

#include <cstdint>
#include <cstdio>
#include <deque>
#include <string>
#include <vector>

namespace pp::bench {

class Report {
 public:
  struct Cell {
    std::string column;
    std::string text;  // table form
    std::string json;  // JSON token (quoted string or number literal)
    bool numeric = false;
  };

  class Row {
   public:
    Row& cell(const std::string& column, const std::string& v);
    Row& cell(const std::string& column, const char* v);
    Row& cell(const std::string& column, double v, int precision = 1);
    Row& cell(const std::string& column, std::uint64_t v);
    Row& cell(const std::string& column, std::int64_t v);
    Row& cell(const std::string& column, int v);
    Row& cell(const std::string& column, unsigned v);

   private:
    friend class Report;
    std::vector<Cell> cells_;
  };

  struct Section {
    std::string name;
    std::deque<Row> rows;  // deque: row() references stay stable

    Row& row() { return rows.emplace_back(); }
  };

  explicit Report(std::string title) : title_{std::move(title)} {}

  // Creates (or reuses, by name) a section; "" is the anonymous default.
  Section& section(const std::string& name = "");
  // Shorthand: a row in the most recent section.
  Row& row() { return section_tail().row(); }
  void note(std::string text) { notes_.push_back(std::move(text)); }

  const std::string& title() const { return title_; }

  void print(std::FILE* out = stdout) const;
  std::string json() const;

 private:
  Section& section_tail();
  std::string title_;
  std::deque<Section> sections_;
  std::vector<std::string> notes_;
};

// JSON string escaping for the small grammar reports use (quotes,
// backslashes, control characters).
std::string json_escape(const std::string& s);

// The --check perf gate: each row's `measured` value must reach
// (1 - tolerance) times the `key` cell of the row tagged `"bench":"<bench>"`
// in the committed Report JSON at `path` (tolerance: PP_PERF_TOLERANCE, a
// fraction, else `default_tolerance`).  Prints one verdict per row; returns
// 0 when all hold, 1 when any regressed or is missing, 2 when `path` is
// unreadable.
struct GateRow {
  std::string bench, key;
  double measured = 0;
};
int check_baseline(const char* prog, const std::string& path,
                   const std::vector<GateRow>& rows, double default_tolerance);

}  // namespace pp::bench
