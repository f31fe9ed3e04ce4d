// Exporters: turn a MetricsRegistry + Timeline into JSONL or CSV, and read
// the JSONL back (round-trip) so external tools and examples/obs_report
// can analyze a run without linking the simulator.
//
// JSONL: one self-describing object per line —
//   {"type":"counter","name":"proxy.schedules_sent","value":280}
//   {"type":"time_gauge","name":"proxy.queue_depth_bytes","mean":...,...}
//   {"type":"histogram","name":"...","count":..,"sum":..,"min":..,"max":..,
//    "buckets":[[floor,count],...]}        (non-empty buckets only)
//   {"type":"event","t_ns":..,"dur_ns":..,"kind":"burst",
//    "subject":"172.16.0.1","value":1400}
// The grammar is flat (no nested objects, no string escapes needed), so
// the reader is a small hand-rolled scanner rather than a JSON library.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/timeline.hpp"

namespace pp::obs {

struct CounterSample {
  std::string name;
  std::uint64_t value = 0;
};

struct TimeGaugeSample {
  std::string name;
  double mean = 0, min = 0, max = 0, last = 0;
};

struct HistogramSample {
  std::string name;
  std::uint64_t count = 0, sum = 0, min = 0, max = 0;
  // (bucket floor value, count), non-empty buckets only, ascending.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> buckets;
};

// A run's full exported/re-imported observability surface.
struct Report {
  std::vector<CounterSample> counters;
  std::vector<TimeGaugeSample> time_gauges;
  std::vector<HistogramSample> histograms;
  std::vector<TimelineEvent> events;

  const CounterSample* find_counter(const std::string& name) const;
  const TimeGaugeSample* find_time_gauge(const std::string& name) const;
  const HistogramSample* find_histogram(const std::string& name) const;
};

// Snapshot live structures (timeline may be null).
Report snapshot(const MetricsRegistry& reg, const Timeline* timeline);

void write_jsonl(std::ostream& os, const Report& report);
// Throws std::runtime_error on malformed input.
Report read_jsonl(std::istream& is);

// CSV, two flavors: metrics (one row per named metric) and timeline (one
// row per event).
void write_metrics_csv(std::ostream& os, const Report& report);
void write_timeline_csv(std::ostream& os, const Report& report);

// Dotted-quad rendering of a timeline subject ("-" for 0).
std::string subject_str(std::uint32_t raw);

}  // namespace pp::obs
