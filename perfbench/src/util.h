// Small helpers shared by storm_bench: clocks, order statistics,
// the metric record every run prints, and the in-memory span recorder used
// by the traced run.

#ifndef PERFBENCH_UTIL_H_
#define PERFBENCH_UTIL_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MsSince(Clock::time_point t0, Clock::time_point t1) {
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}
inline double MsSince(Clock::time_point t0) {
  return MsSince(t0, Clock::now());
}

// Nearest-rank percentile (p in [0, 1]); 0 for an empty sample.
inline double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p * static_cast<double>(v.size()));
  size_t i = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  if (i >= v.size()) i = v.size() - 1;
  return v[i];
}
inline double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// One named metric of a run. `samples` is the number of observations
// behind a percentile (0 for counters and single measurements); `base`
// spells out the denominator of a ratio.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  uint64_t samples = 0;
  std::string base;
};

class MetricSet {
 public:
  void Add(std::string name, double value, std::string unit,
           uint64_t samples = 0, std::string base = "") {
    metrics_.push_back({std::move(name), value, std::move(unit), samples,
                        std::move(base)});
  }
  const std::vector<Metric>& all() const { return metrics_; }

 private:
  std::vector<Metric> metrics_;
};

inline std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

// A JSON number with all its digits; non-finite values become null.
inline std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// Spans recorded by the benchmark around each call into a layer: name,
// start, end, parent span and request id. Kept in memory and written out
// when the run ends; self time is a span's duration minus the part of it
// its children cover.
class SpanRecorder {
 public:
  struct Span {
    uint64_t id = 0;
    uint64_t parent = 0;  // 0: root
    uint64_t request = 0;
    std::string name;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
  };

  explicit SpanRecorder(bool enabled) : enabled_(enabled), t0_(Clock::now()) {}

  uint64_t Begin(const std::string& name, uint64_t parent, uint64_t request) {
    if (!enabled_) return 0;
    std::lock_guard<std::mutex> lock(mu_);
    Span s;
    s.id = spans_.size() + 1;
    s.parent = parent;
    s.request = request;
    s.name = name;
    s.start_ns = Now();
    spans_.push_back(std::move(s));
    return spans_.back().id;
  }
  void End(uint64_t id) {
    if (!enabled_ || id == 0) return;
    const int64_t now = Now();
    std::lock_guard<std::mutex> lock(mu_);
    spans_[id - 1].end_ns = now;
  }

  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_.size();
  }

  // Total and self milliseconds per span name.
  std::map<std::string, std::pair<double, double>> SelfTimes() const;
  bool WriteJson(const std::string& path) const;

 private:
  int64_t Now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                t0_)
        .count();
  }

  bool enabled_;
  Clock::time_point t0_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

// RAII span; a no-op when the recorder is off.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, const std::string& name, uint64_t parent = 0,
             uint64_t request = 0)
      : rec_(rec), id_(rec->Begin(name, parent, request)) {}
  ~ScopedSpan() { rec_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  uint64_t id() const { return id_; }

 private:
  SpanRecorder* rec_;
  uint64_t id_;
};

}  // namespace perfbench

#endif  // PERFBENCH_UTIL_H_
