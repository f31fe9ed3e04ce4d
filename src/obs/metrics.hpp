// MetricsRegistry: named counters, sim-time-weighted gauges, and
// log-bucketed histograms.
//
// One registry serves a whole simulation (it lives in exp::Testbed's
// Observer).  Counters are written once, at the end of a run, from the
// components' own stats (exp::Testbed::publish_metrics).  Gauges and
// histograms are resolved once — time_gauge()/histogram() are map lookups —
// and then updated through the returned pointer on the hot path.  Handles
// stay valid for the registry's lifetime (std::map nodes are stable).
// Iteration order is the sorted name order, so exports are deterministic.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <map>
#include <string>

#include "sim/time.hpp"

namespace pp::obs {

class Counter {
 public:
  void inc(std::uint64_t n = 1) { v_ += n; }
  std::uint64_t value() const { return v_; }
  void merge_from(const Counter& o) { v_ += o.v_; }

 private:
  std::uint64_t v_ = 0;
};

// A gauge whose average is weighted by how long each value was held, in
// simulation time: mean() is the time integral divided by the observation
// span (e.g. mean queue depth, sleep duty cycle).  finalize() folds the
// tail segment up to the end of the run; it is safe to call repeatedly.
class TimeWeightedGauge {
 public:
  void set(sim::Time now, double v) {
    if (!started_) {
      started_ = true;
      start_ = last_t_ = now;
      last_v_ = min_ = max_ = v;
      return;
    }
    fold(now);
    last_v_ = v;
    if (v < min_) min_ = v;
    if (v > max_) max_ = v;
  }

  void finalize(sim::Time end) {
    if (started_) fold(end);
  }

  // Merge a finalized gauge from another partition running on the same
  // simulated clock: the integrals add, the observation span becomes the
  // union of both spans, and last() reports the later of the two tails.
  // Call finalize() on both sides first so no open segment is dropped.
  void merge_from(const TimeWeightedGauge& o) {
    if (!o.started_) return;
    if (!started_) {
      *this = o;
      return;
    }
    if (o.start_ < start_) start_ = o.start_;
    if (o.last_t_ > last_t_ || (o.last_t_ == last_t_ && o.last_v_ > last_v_))
      last_v_ = o.last_v_;
    if (o.last_t_ > last_t_) last_t_ = o.last_t_;
    integral_ += o.integral_;
    if (o.min_ < min_) min_ = o.min_;
    if (o.max_ > max_) max_ = o.max_;
  }

  bool started() const { return started_; }
  double last() const { return last_v_; }
  double min() const { return min_; }
  double max() const { return max_; }
  // Time-weighted mean over [first set, last fold].  A gauge that never
  // moved reports its held value.
  double mean() const {
    const double span = static_cast<double>((last_t_ - start_).count_ns());
    if (span <= 0) return last_v_;
    return integral_ / span;
  }

 private:
  void fold(sim::Time now) {
    if (now < last_t_) return;
    integral_ += last_v_ * static_cast<double>((now - last_t_).count_ns());
    last_t_ = now;
  }

  bool started_ = false;
  sim::Time start_;
  sim::Time last_t_;
  double last_v_ = 0;
  double integral_ = 0;  // value * nanoseconds
  double min_ = 0;
  double max_ = 0;
};

// Log2-bucketed histogram of non-negative integer samples (latencies in
// microseconds, burst lengths in bytes, ...).  Bucket 0 holds the value 0;
// bucket i >= 1 holds [2^(i-1), 2^i).
class Histogram {
 public:
  static constexpr int kBuckets = 65;

  static int bucket_index(std::uint64_t v) {
    return v == 0 ? 0 : std::bit_width(v);
  }
  // Smallest value belonging to bucket i.
  static std::uint64_t bucket_floor(int i) {
    return i == 0 ? 0 : std::uint64_t{1} << (i - 1);
  }

  void observe(std::uint64_t v) {
    ++buckets_[static_cast<std::size_t>(bucket_index(v))];
    ++count_;
    sum_ += v;
    if (count_ == 1 || v < min_) min_ = v;
    if (v > max_) max_ = v;
  }

  std::uint64_t count() const { return count_; }
  std::uint64_t sum() const { return sum_; }
  std::uint64_t min() const { return min_; }
  std::uint64_t max() const { return max_; }
  double mean() const {
    return count_ == 0 ? 0.0
                       : static_cast<double>(sum_) / static_cast<double>(count_);
  }
  const std::array<std::uint64_t, kBuckets>& buckets() const {
    return buckets_;
  }

  void merge_from(const Histogram& o) {
    if (o.count_ == 0) return;
    for (std::size_t i = 0; i < buckets_.size(); ++i)
      buckets_[i] += o.buckets_[i];
    if (count_ == 0 || o.min_ < min_) min_ = o.min_;
    if (o.max_ > max_) max_ = o.max_;
    count_ += o.count_;
    sum_ += o.sum_;
  }

 private:
  std::array<std::uint64_t, kBuckets> buckets_{};
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t min_ = 0;
  std::uint64_t max_ = 0;
};

class MetricsRegistry {
 public:
  // Resolve-or-create by name.  Pointers remain valid for the registry's
  // lifetime.
  Counter* counter(const std::string& name) { return &counters_[name]; }
  TimeWeightedGauge* time_gauge(const std::string& name) {
    return &time_gauges_[name];
  }
  Histogram* histogram(const std::string& name) { return &histograms_[name]; }

  // Lookup without creating; nullptr when absent.
  const Counter* find_counter(const std::string& name) const;
  const TimeWeightedGauge* find_time_gauge(const std::string& name) const;
  const Histogram* find_histogram(const std::string& name) const;

  const std::map<std::string, Counter>& counters() const { return counters_; }
  const std::map<std::string, TimeWeightedGauge>& time_gauges() const {
    return time_gauges_;
  }
  const std::map<std::string, Histogram>& histograms() const {
    return histograms_;
  }

  // Fold every time-weighted gauge's tail segment up to `end` (call once
  // the run's horizon is known, before exporting).
  void finalize(sim::Time end) {
    for (auto& [name, g] : time_gauges_) g.finalize(end);
  }

  // Fold another registry into this one, name by name: counters and
  // histograms add, time-weighted gauges take the union of
  // their observation spans.  Used to sum many scenarios' registries into
  // one view; finalize() both registries first.  Deterministic: std::map iteration is name order.
  void merge_from(const MetricsRegistry& o) {
    for (const auto& [name, c] : o.counters_) counters_[name].merge_from(c);
    for (const auto& [name, g] : o.time_gauges_)
      time_gauges_[name].merge_from(g);
    for (const auto& [name, h] : o.histograms_)
      histograms_[name].merge_from(h);
  }

 private:
  std::map<std::string, Counter> counters_;
  std::map<std::string, TimeWeightedGauge> time_gauges_;
  std::map<std::string, Histogram> histograms_;
};

}  // namespace pp::obs
