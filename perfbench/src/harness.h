// Measurement plumbing shared by the perfbench workloads: a monotonic
// clock, raw-sample statistics, the in-memory span tracer, the output
// checker and the metric report.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Peak resident set size of this process so far, in MB (10^6 bytes).
double PeakRssMb();

/// Raw per-op samples. Percentiles are nearest-rank over the sorted
/// samples; nothing is bucketed.
class Samples {
 public:
  void Add(double value) { values_.push_back(value); }
  void Append(const Samples& other) {
    values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  }
  size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }
  /// Nearest-rank percentile, p in (0, 100]. Precondition: !empty().
  double Percentile(double p) const;
  double Median() const { return Percentile(50.0); }

  /// The highest percentile of a fixed ladder (99.99 … 50) that still has
  /// at least ten samples above it.
  struct Tail {
    double percentile = 0.0;
    double value = 0.0;
  };
  std::optional<Tail> TailPercentile() const;

  /// Median of the samples in [begin, end) of insertion order.
  double WindowMedian(size_t begin, size_t end) const;

 private:
  void Sort() const;
  std::vector<double> values_;
  mutable std::vector<double> sorted_;
  mutable size_t sorted_size_ = 0;
};

/// In-memory span recorder. Each span has a name (`module.function`), a
/// start and end, a parent span and an op id. Disabled, Open/Close cost a
/// branch; the spans are written once, at the end of the run.
class Tracer {
 public:
  struct Span {
    const char* name;
    int64_t start_ns;
    int64_t end_ns;
    int32_t parent;
    uint32_t op;
  };

  bool enabled() const { return enabled_; }
  void set_enabled(bool enabled) { enabled_ = enabled; }
  /// Starts a new op id; spans opened afterwards carry it.
  void NextOp() { ++op_; }

  int32_t Open(const char* name) {
    if (!enabled_) return -1;
    const int32_t index = static_cast<int32_t>(spans_.size());
    spans_.push_back(Span{name, NowNs(), 0, current_, op_});
    current_ = index;
    return index;
  }
  void Close(int32_t index) {
    if (index < 0) return;
    spans_[static_cast<size_t>(index)].end_ns = NowNs();
    current_ = spans_[static_cast<size_t>(index)].parent;
  }

  /// Durations (ms) of every closed span named `name`.
  Samples DurationsMs(const std::string& name) const;
  /// Self time (span minus the union of its children) summed per layer —
  /// the part of the span name before the first '.' — in ms.
  std::map<std::string, double> SelfMsByLayer() const;
  /// Writes the spans as JSON lines tagged with `phase`.
  void Write(std::ostream& out, const char* phase) const;

 private:
  bool enabled_ = false;
  uint32_t op_ = 0;
  int32_t current_ = -1;
  std::vector<Span> spans_;
};

/// RAII span.
class Scope {
 public:
  Scope(Tracer& tracer, const char* name)
      : tracer_(tracer), index_(tracer.Open(name)) {}
  ~Scope() { tracer_.Close(index_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& tracer_;
  int32_t index_;
};

/// Counts output checks; a failed check is printed (first few) and counted.
class Checker {
 public:
  /// Records one check; returns `ok`.
  bool Check(bool ok, const std::string& what);
  size_t attempted() const { return attempted_; }
  size_t failed() const { return failed_; }

 private:
  size_t attempted_ = 0;
  size_t failed_ = 0;
};

/// One printed metric. A value of nullopt prints as null.
struct Metric {
  std::string name;
  std::optional<double> value;
  std::string unit;
  std::string note;
};

/// Collects metrics, prints them one per line, and prints the final JSON
/// result line carrying the metrics named in `json_names`.
class Report {
 public:
  void Add(std::string name, std::optional<double> value, std::string unit,
           std::string note = "");
  /// Adds `<prefix>_p50_<unit>` and `<prefix>_tail_<unit>` from `samples`
  /// (in `unit`); the tail line names its percentile and sample count.
  void AddLatency(const std::string& prefix, const Samples& samples,
                  const std::string& unit);
  void Info(std::string line) { info_.push_back(std::move(line)); }

  /// Prints every metric line, then the result line. Returns false when a
  /// JSON metric is missing or has no value.
  bool Print(const std::vector<std::string>& json_names, bool correct,
             size_t attempted, size_t failed) const;

 private:
  const Metric* Find(const std::string& name) const;
  std::vector<std::string> info_;
  std::vector<Metric> metrics_;
};

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
