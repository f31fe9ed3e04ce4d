#include "obs/export.hpp"

#include <charconv>
#include <cinttypes>
#include <cstdio>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <string_view>

namespace pp::obs {

namespace {

// Shortest representation that round-trips a double exactly.
std::string fmt_double(double v) {
  char buf[64];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, v);
  if (ec != std::errc{}) return "0";
  return std::string{buf, end};
}

// -- line scanner ------------------------------------------------------------
// The exporter writes flat objects with unescaped string values, so a value
// for `"key":` is either a quoted run without quotes inside, or a run of
// number characters, or an array (scanned by the caller).

std::string_view raw_value(std::string_view line, std::string_view key) {
  // Built with append (not operator+): GCC 12 -O3 misfires -Wrestrict on
  // `"lit" + std::string{sv}` and the build is -Werror.
  std::string pat;
  pat.reserve(key.size() + 3);
  pat.push_back('"');
  pat.append(key);
  pat += "\":";
  const auto pos = line.find(pat);
  if (pos == std::string_view::npos) return {};
  return line.substr(pos + pat.size());
}

bool get_string(std::string_view line, std::string_view key,
                std::string& out) {
  auto rest = raw_value(line, key);
  if (rest.empty() || rest.front() != '"') return false;
  rest.remove_prefix(1);
  const auto end = rest.find('"');
  if (end == std::string_view::npos) return false;
  out.assign(rest.substr(0, end));
  return true;
}

bool get_u64(std::string_view line, std::string_view key, std::uint64_t& out) {
  const auto rest = raw_value(line, key);
  if (rest.empty()) return false;
  const auto [p, ec] = std::from_chars(rest.data(), rest.data() + rest.size(),
                                       out);
  (void)p;
  return ec == std::errc{};
}

bool get_i64(std::string_view line, std::string_view key, std::int64_t& out) {
  const auto rest = raw_value(line, key);
  if (rest.empty()) return false;
  const auto [p, ec] = std::from_chars(rest.data(), rest.data() + rest.size(),
                                       out);
  (void)p;
  return ec == std::errc{};
}

bool get_double(std::string_view line, std::string_view key, double& out) {
  const auto rest = raw_value(line, key);
  if (rest.empty()) return false;
  const auto [p, ec] = std::from_chars(rest.data(), rest.data() + rest.size(),
                                       out);
  (void)p;
  return ec == std::errc{};
}

// Parse "[[a,b],[c,d],...]" for histogram buckets.
bool get_pairs(std::string_view line, std::string_view key,
               std::vector<std::pair<std::uint64_t, std::uint64_t>>& out) {
  auto rest = raw_value(line, key);
  if (rest.empty() || rest.front() != '[') return false;
  rest.remove_prefix(1);
  while (!rest.empty() && rest.front() == '[') {
    rest.remove_prefix(1);
    std::uint64_t a = 0, b = 0;
    auto r1 = std::from_chars(rest.data(), rest.data() + rest.size(), a);
    if (r1.ec != std::errc{} || *r1.ptr != ',') return false;
    const char* q = r1.ptr + 1;
    auto r2 = std::from_chars(q, rest.data() + rest.size(), b);
    if (r2.ec != std::errc{} || *r2.ptr != ']') return false;
    out.emplace_back(a, b);
    rest.remove_prefix(static_cast<std::size_t>(r2.ptr + 1 - rest.data()));
    if (!rest.empty() && rest.front() == ',') rest.remove_prefix(1);
  }
  return !rest.empty() && rest.front() == ']';
}

bool parse_subject(const std::string& s, std::uint32_t& out) {
  if (s == "-") {
    out = 0;
    return true;
  }
  unsigned a, b, c, d;
  if (std::sscanf(s.c_str(), "%u.%u.%u.%u", &a, &b, &c, &d) != 4) return false;
  if (a > 255 || b > 255 || c > 255 || d > 255) return false;
  out = (a << 24) | (b << 16) | (c << 8) | d;
  return true;
}

}  // namespace

std::string subject_str(std::uint32_t raw) {
  if (raw == 0) return "-";
  char buf[20];
  std::snprintf(buf, sizeof buf, "%u.%u.%u.%u", raw >> 24, (raw >> 16) & 0xff,
                (raw >> 8) & 0xff, raw & 0xff);
  return buf;
}

const CounterSample* Report::find_counter(const std::string& name) const {
  for (const auto& c : counters)
    if (c.name == name) return &c;
  return nullptr;
}

const TimeGaugeSample* Report::find_time_gauge(const std::string& name) const {
  for (const auto& g : time_gauges)
    if (g.name == name) return &g;
  return nullptr;
}

const HistogramSample* Report::find_histogram(const std::string& name) const {
  for (const auto& h : histograms)
    if (h.name == name) return &h;
  return nullptr;
}

Report snapshot(const MetricsRegistry& reg, const Timeline* timeline) {
  Report r;
  for (const auto& [name, c] : reg.counters())
    r.counters.push_back({name, c.value()});
  for (const auto& [name, g] : reg.time_gauges())
    r.time_gauges.push_back({name, g.mean(), g.min(), g.max(), g.last()});
  for (const auto& [name, h] : reg.histograms()) {
    HistogramSample s;
    s.name = name;
    s.count = h.count();
    s.sum = h.sum();
    s.min = h.min();
    s.max = h.max();
    for (int i = 0; i < Histogram::kBuckets; ++i) {
      const auto n = h.buckets()[static_cast<std::size_t>(i)];
      if (n > 0) s.buckets.emplace_back(Histogram::bucket_floor(i), n);
    }
    r.histograms.push_back(std::move(s));
  }
  if (timeline) r.events = timeline->events();
  return r;
}

void write_jsonl(std::ostream& os, const Report& report) {
  for (const auto& c : report.counters) {
    os << "{\"type\":\"counter\",\"name\":\"" << c.name << "\",\"value\":"
       << c.value << "}\n";
  }
  for (const auto& g : report.time_gauges) {
    os << "{\"type\":\"time_gauge\",\"name\":\"" << g.name << "\",\"mean\":"
       << fmt_double(g.mean) << ",\"min\":" << fmt_double(g.min)
       << ",\"max\":" << fmt_double(g.max) << ",\"last\":"
       << fmt_double(g.last) << "}\n";
  }
  for (const auto& h : report.histograms) {
    os << "{\"type\":\"histogram\",\"name\":\"" << h.name << "\",\"count\":"
       << h.count << ",\"sum\":" << h.sum << ",\"min\":" << h.min
       << ",\"max\":" << h.max << ",\"buckets\":[";
    for (std::size_t i = 0; i < h.buckets.size(); ++i) {
      if (i) os << ',';
      os << '[' << h.buckets[i].first << ',' << h.buckets[i].second << ']';
    }
    os << "]}\n";
  }
  for (const auto& e : report.events) {
    os << "{\"type\":\"event\",\"t_ns\":" << e.at.count_ns() << ",\"dur_ns\":"
       << e.dur.count_ns() << ",\"kind\":\"" << to_string(e.kind)
       << "\",\"subject\":\"" << subject_str(e.subject) << "\",\"value\":"
       << e.value << "}\n";
  }
}

Report read_jsonl(std::istream& is) {
  Report r;
  std::string line;
  std::size_t lineno = 0;
  auto fail = [&](const char* what) {
    throw std::runtime_error("obs::read_jsonl line " + std::to_string(lineno) +
                             ": " + what);
  };
  while (std::getline(is, line)) {
    ++lineno;
    if (line.empty()) continue;
    std::string type;
    if (!get_string(line, "type", type)) fail("missing type");
    if (type == "counter") {
      CounterSample c;
      if (!get_string(line, "name", c.name) ||
          !get_u64(line, "value", c.value))
        fail("bad counter");
      r.counters.push_back(std::move(c));
    } else if (type == "time_gauge") {
      TimeGaugeSample g;
      if (!get_string(line, "name", g.name) ||
          !get_double(line, "mean", g.mean) ||
          !get_double(line, "min", g.min) ||
          !get_double(line, "max", g.max) ||
          !get_double(line, "last", g.last))
        fail("bad time_gauge");
      r.time_gauges.push_back(std::move(g));
    } else if (type == "histogram") {
      HistogramSample h;
      if (!get_string(line, "name", h.name) ||
          !get_u64(line, "count", h.count) || !get_u64(line, "sum", h.sum) ||
          !get_u64(line, "min", h.min) || !get_u64(line, "max", h.max) ||
          !get_pairs(line, "buckets", h.buckets))
        fail("bad histogram");
      r.histograms.push_back(std::move(h));
    } else if (type == "event") {
      TimelineEvent e;
      // pp-lint: allow(naked-duration): wire-format field before parsing
      std::int64_t t_ns = 0, dur_ns = 0;
      std::string kind, subject;
      if (!get_i64(line, "t_ns", t_ns) || !get_i64(line, "dur_ns", dur_ns) ||
          !get_string(line, "kind", kind) ||
          !get_string(line, "subject", subject) ||
          !get_u64(line, "value", e.value))
        fail("bad event");
      if (!event_kind_from_string(kind, e.kind)) fail("unknown event kind");
      if (!parse_subject(subject, e.subject)) fail("bad event subject");
      e.at = sim::Time::ns(t_ns);
      e.dur = sim::Time::ns(dur_ns);
      r.events.push_back(e);
    } else {
      fail("unknown type");
    }
  }
  return r;
}

void write_metrics_csv(std::ostream& os, const Report& report) {
  os << "type,name,value,mean,min,max,last,count,sum\n";
  for (const auto& c : report.counters)
    os << "counter," << c.name << ',' << c.value << ",,,,,,\n";
  for (const auto& g : report.time_gauges)
    os << "time_gauge," << g.name << ",," << fmt_double(g.mean) << ','
       << fmt_double(g.min) << ',' << fmt_double(g.max) << ','
       << fmt_double(g.last) << ",,\n";
  for (const auto& h : report.histograms)
    os << "histogram," << h.name << ",,," << h.min << ',' << h.max << ",,"
       << h.count << ',' << h.sum << "\n";
}

void write_timeline_csv(std::ostream& os, const Report& report) {
  os << "t_ns,dur_ns,kind,subject,value\n";
  for (const auto& e : report.events)
    os << e.at.count_ns() << ',' << e.dur.count_ns() << ',' << to_string(e.kind)
       << ',' << subject_str(e.subject) << ',' << e.value << "\n";
}

}  // namespace pp::obs
