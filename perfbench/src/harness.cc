#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) * 1024.0 / 1e6;  // KiB on Linux
}

void Samples::Sort() const {
  if (sorted_size_ == values_.size()) return;
  sorted_ = values_;
  std::sort(sorted_.begin(), sorted_.end());
  sorted_size_ = values_.size();
}

double Samples::Percentile(double p) const {
  Sort();
  const double n = static_cast<double>(sorted_.size());
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * n));
  rank = std::clamp<size_t>(rank, 1, sorted_.size());
  return sorted_[rank - 1];
}

std::optional<Samples::Tail> Samples::TailPercentile() const {
  static constexpr double kLadder[] = {99.99, 99.9, 99.0, 98.0, 95.0,
                                       90.0,  80.0, 75.0, 50.0};
  const double n = static_cast<double>(values_.size());
  for (double p : kLadder) {
    const double rank = std::ceil(p / 100.0 * n);
    if (n - rank >= 10.0) return Tail{p, Percentile(p)};
  }
  return std::nullopt;
}

double Samples::WindowMedian(size_t begin, size_t end) const {
  std::vector<double> window(values_.begin() + static_cast<ptrdiff_t>(begin),
                             values_.begin() + static_cast<ptrdiff_t>(end));
  std::sort(window.begin(), window.end());
  return window[(window.size() - 1) / 2];
}

Samples Tracer::DurationsMs(const std::string& name) const {
  Samples out;
  for (const Span& span : spans_) {
    if (span.end_ns != 0 && name == span.name) {
      out.Add(static_cast<double>(span.end_ns - span.start_ns) / 1e6);
    }
  }
  return out;
}

std::map<std::string, double> Tracer::SelfMsByLayer() const {
  // Spans of one thread nest strictly, so the union of a span's children
  // is the sum of their durations.
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const Span& span : spans_) {
    if (span.parent >= 0 && span.end_ns != 0) {
      child_ns[static_cast<size_t>(span.parent)] += span.end_ns - span.start_ns;
    }
  }
  std::map<std::string, double> self_ms;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    if (span.end_ns == 0) continue;
    const std::string name = span.name;
    const std::string layer = name.substr(0, name.find('.'));
    self_ms[layer] +=
        static_cast<double>(span.end_ns - span.start_ns - child_ns[i]) / 1e6;
  }
  return self_ms;
}

void Tracer::Write(std::ostream& out, const char* phase) const {
  for (const Span& span : spans_) {
    out << "{\"phase\":\"" << phase << "\",\"name\":\"" << span.name
        << "\",\"start_ns\":" << span.start_ns << ",\"end_ns\":" << span.end_ns
        << ",\"parent\":" << span.parent << ",\"op\":" << span.op << "}\n";
  }
}

bool Checker::Check(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    if (failed_ < 10) std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
    ++failed_;
  }
  return ok;
}

void Report::Add(std::string name, std::optional<double> value,
                 std::string unit, std::string note) {
  metrics_.push_back(
      Metric{std::move(name), value, std::move(unit), std::move(note)});
}

void Report::AddLatency(const std::string& prefix, const Samples& samples,
                        const std::string& unit) {
  if (samples.empty()) {
    Add(prefix + "_p50_" + unit, std::nullopt, unit, "no samples");
    Add(prefix + "_tail_" + unit, std::nullopt, unit, "no samples");
    return;
  }
  char note[96];
  std::snprintf(note, sizeof note, "%zu samples", samples.size());
  Add(prefix + "_p50_" + unit, samples.Median(), unit, note);
  const std::optional<Samples::Tail> tail = samples.TailPercentile();
  if (tail.has_value()) {
    std::snprintf(note, sizeof note, "p%g of %zu samples", tail->percentile,
                  samples.size());
    Add(prefix + "_tail_" + unit, tail->value, unit, note);
  } else {
    std::snprintf(note, sizeof note,
                  "fewer than 10 samples above p50 (%zu samples)",
                  samples.size());
    Add(prefix + "_tail_" + unit, std::nullopt, unit, note);
  }
}

const Metric* Report::Find(const std::string& name) const {
  for (const Metric& metric : metrics_) {
    if (metric.name == name) return &metric;
  }
  return nullptr;
}

namespace {

std::string FormatNumber(double value, int digits) {
  if (!std::isfinite(value)) return "null";
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.*g", digits, value);
  return buffer;
}

}  // namespace

bool Report::Print(const std::vector<std::string>& json_names, bool correct,
                   size_t attempted, size_t failed) const {
  for (const std::string& line : info_) std::printf("%s\n", line.c_str());
  for (const Metric& metric : metrics_) {
    const std::string value =
        metric.value.has_value() ? FormatNumber(*metric.value, 6) : "null";
    std::printf("metric %-28s %12s %-6s%s%s\n", metric.name.c_str(),
                value.c_str(), metric.unit.c_str(),
                metric.note.empty() ? "" : "  # ", metric.note.c_str());
  }
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  bool complete = true;
  for (size_t i = 0; i < json_names.size(); ++i) {
    const Metric* metric = Find(json_names[i]);
    if (metric == nullptr || !metric->value.has_value() ||
        !std::isfinite(*metric->value)) {
      std::fprintf(stderr, "perfbench: metric %s was not measured\n",
                   json_names[i].c_str());
      complete = false;
      continue;
    }
    if (i != 0) json += ", ";
    json += "\"" + metric->name + "\": {\"value\": " +
            FormatNumber(*metric->value, 17) + ", \"unit\": \"" +
            metric->unit + "\"}";
  }
  json += "}}";
  if (!complete) return false;
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return true;
}

}  // namespace perfbench
