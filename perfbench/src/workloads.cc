#include "workloads.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <vector>

#include "cardirect/model.h"
#include "cardirect/query.h"
#include "cardirect/xml.h"
#include "core/compute_cdr.h"
#include "core/compute_cdr_percent.h"
#include "harness.h"
#include "index/directional_query.h"
#include "inputs.h"
#include "obs/metrics.h"
#include "reasoning/disjunctive_relation.h"

namespace perfbench {
namespace {

using cardir::AnnotatedRegion;
using cardir::CardinalRelation;
using cardir::Configuration;
using cardir::DirectionalIndex;
using cardir::DirectionalQueryStats;
using cardir::DisjunctiveRelation;
using cardir::EngineOptions;
using cardir::EngineStats;
using cardir::PercentageMatrix;
using cardir::Query;
using cardir::QueryResult;
using cardir::QueryRow;
using cardir::RelationStore;
using cardir::Result;
using cardir::Status;
using cardir::Tile;

// Set-ups per run; setup_s is their median.
constexpr int kSetupRepeats = 5;

// The metrics of the final JSON line (BENCHMARK.json's end_to_end and
// per_layer lists). Every workload measures all of them.
const std::vector<std::string>& EndToEndJson() {
  static const std::vector<std::string> names = {"setup_s", "peak_rss_mb",
                                                 "ops_per_s", "p50_ms"};
  return names;
}
const std::vector<std::string>& PerLayerJson() {
  static const std::vector<std::string> names = {
      "xml.import_ms",        "mem.xml_buffer.peak_mb",
      "sweep.compute_ms",     "sweep.explicit_share",
      "sweep.pairs_per_s",    "store.bytes_per_region",
      "store.bytes_ratio",    "store.edited_row_share",
      "trace.overhead_pct",   "self.xml_share",
      "self.model_share",     "self.engine_share",
      "self.query_share",     "self.index_share",
      "self.core_share",      "self.bench_share"};
  return names;
}

double Ms(int64_t ns) { return static_cast<double>(ns) / 1e6; }

std::optional<double> MedianOrNull(const Samples& samples, double scale = 1.0) {
  if (samples.empty()) return std::nullopt;
  return samples.Median() * scale;
}

std::optional<double> Ratio(double numerator, double denominator) {
  if (denominator == 0.0) return std::nullopt;
  return numerator / denominator;
}

// Counter value in a metrics snapshot, or nullopt when the counter was
// never registered (e.g. a build with CARDIR_OBS=OFF).
std::optional<double> CounterOf(const cardir::obs::MetricsSnapshot& snapshot,
                                const std::string& name) {
  const auto it = snapshot.counters.find(name);
  if (it == snapshot.counters.end()) return std::nullopt;
  return static_cast<double>(it->second);
}

// ---------------------------------------------------------------------------
// Output checks, shared with the self-test.
// ---------------------------------------------------------------------------

bool CheckRelation(Checker& checker, const std::string& what,
                   const std::optional<CardinalRelation>& got,
                   const CardinalRelation& want) {
  return checker.Check(got.has_value() && *got == want,
                       what + ": got " +
                           (got.has_value() ? got->ToString() : "nothing") +
                           ", want " + want.ToString());
}

// Persist: the reopened configuration holds the same regions and the same
// ForEachRelation sequence as the computed one.
bool CheckSameRelations(Checker& checker, const Configuration& computed,
                        const Configuration& reopened) {
  checker.Check(reopened.regions().size() == computed.regions().size(),
                "persist: reopened region count");
  struct Entry {
    const std::string* primary;
    const std::string* reference;
    uint16_t mask;
  };
  std::vector<Entry> expected;
  expected.reserve(computed.relation_count());
  computed.ForEachRelation([&expected](const std::string& primary,
                                       const std::string& reference,
                                       const CardinalRelation& relation) {
    expected.push_back(Entry{&primary, &reference, relation.mask()});
  });
  size_t k = 0;
  bool same = true;
  reopened.ForEachRelation([&](const std::string& primary,
                               const std::string& reference,
                               const CardinalRelation& relation) {
    if (k >= expected.size() || *expected[k].primary != primary ||
        *expected[k].reference != reference ||
        expected[k].mask != relation.mask()) {
      same = false;
    }
    ++k;
  });
  return checker.Check(same && k == expected.size(),
                       "persist: reopened relation sequence differs from the "
                       "computed one");
}

// Overlap: a CDR% matrix sums to 100 and its non-zero tiles are exactly
// the qualitative relation's tiles. "Non-zero" uses the library's own
// noise floor for this agreement (AuditQualQuantAgreement, 1e-9 percent);
// tiles below it that are missing from the relation are counted in
// `residue_tiles` so they stay visible.
constexpr double kPercentNoiseFloor = 1e-9;

bool CheckPercentMatrix(Checker& checker, const std::string& what,
                        const PercentageMatrix& matrix,
                        const CardinalRelation& relation,
                        size_t* residue_tiles = nullptr) {
  const CardinalRelation positive = matrix.ToRelation(0.0);
  const CardinalRelation significant = matrix.ToRelation(kPercentNoiseFloor);
  if (residue_tiles != nullptr) {
    *residue_tiles += static_cast<size_t>(
        std::popcount(static_cast<unsigned>(positive.mask() & ~relation.mask())));
  }
  const bool sum_ok = std::fabs(matrix.Total() - 100.0) <= 1e-6;
  const bool tiles_ok =
      significant.IsSubsetOf(relation) && relation.IsSubsetOf(positive);
  return checker.Check(sum_ok && tiles_ok,
                       what + ": CDR% tiles " + positive.ToString() +
                           " (sum " + std::to_string(matrix.Total()) +
                           "), qualitative " + relation.ToString());
}

// A row set as a count plus an order-independent sum of per-row hashes
// over region indices, so a query's expected rows are compared without
// materialising them (the check must not move peak_rss_mb).
struct RowDigest {
  size_t count = 0;
  uint64_t sum = 0;
  void Add(std::initializer_list<size_t> row) {
    uint64_t h = 0x9e3779b97f4a7c15ULL;
    for (size_t index : row) {
      h = (h ^ index) * 0xbf58476d1ce4e5b9ULL;
      h ^= h >> 31;
    }
    ++count;
    sum += h;
  }
  friend bool operator==(const RowDigest&, const RowDigest&) = default;
};

// Query rows equal the oracle's: sorted and distinct as EvaluateQuery
// promises, with the oracle's count and row digest.
bool CheckRows(Checker& checker, const std::string& what,
               const std::vector<QueryRow>& got, const RowDigest& want,
               const std::map<std::string, size_t>& index_of) {
  RowDigest digest;
  bool known = true;
  for (const QueryRow& row : got) {
    size_t ids[3] = {0, 0, 0};
    for (size_t k = 0; k < row.region_ids.size() && k < 3; ++k) {
      const auto it = index_of.find(row.region_ids[k]);
      known = known && it != index_of.end();
      if (it != index_of.end()) ids[k] = it->second;
    }
    if (row.region_ids.size() == 2) digest.Add({ids[0], ids[1]});
    else digest.Add({ids[0], ids[1], ids[2]});
  }
  const bool ordered =
      std::adjacent_find(got.begin(), got.end(), [](const QueryRow& a, const QueryRow& b) {
        return !(a < b);
      }) == got.end();
  return checker.Check(known && ordered && digest == want,
                       what + ": " + std::to_string(got.size()) + " rows, want " +
                           std::to_string(want.count));
}

bool CheckIds(Checker& checker, const std::string& what,
              std::vector<std::string> got, std::vector<std::string> want) {
  std::sort(got.begin(), got.end());
  std::sort(want.begin(), want.end());
  return checker.Check(got == want, what + ": " + std::to_string(got.size()) +
                                        " regions, want " +
                                        std::to_string(want.size()));
}

// Compute-CDR / Compute-CDR% of a configuration whose geometry does not
// change, computed on first use: the oracle the browse checks compare
// against. The tables are dense, allocated once and filled up front, so
// the oracle's memory is the same in every run and does not move
// peak_rss_mb.
class Truth {
 public:
  explicit Truth(const Configuration& configuration)
      : regions_(&configuration.regions()),
        n_(regions_->size()),
        masks_(n_ * n_, kUnknown),
        percent_ne_(n_ * n_, -1.0f) {}

  /// Forgets every answer and binds to `configuration`, which must have
  /// as many regions as the first one.
  void Reset(const Configuration& configuration) {
    regions_ = &configuration.regions();
    std::fill(masks_.begin(), masks_.end(), kUnknown);
    std::fill(percent_ne_.begin(), percent_ne_.end(), -1.0f);
  }

  CardinalRelation Relation(size_t primary, size_t reference) {
    uint16_t& mask = masks_[primary * n_ + reference];
    if (mask == kUnknown) {
      const Result<CardinalRelation> relation = cardir::ComputeCdr(
          (*regions_)[primary].geometry, (*regions_)[reference].geometry);
      mask = relation.ok() ? relation->mask() : 0;
    }
    return CardinalRelation::FromMask(mask);
  }

  /// The share of `primary` in the NE tile of `reference`, in percent.
  double PercentNE(size_t primary, size_t reference) {
    float& percent = percent_ne_[primary * n_ + reference];
    if (percent < 0.0f) {
      const Result<PercentageMatrix> matrix = cardir::ComputeCdrPercent(
          (*regions_)[primary].geometry, (*regions_)[reference].geometry);
      percent = matrix.ok() ? static_cast<float>(matrix->at(Tile::kNE)) : 0.0f;
    }
    return percent;
  }

 private:
  static constexpr uint16_t kUnknown = 0xffff;
  const std::vector<AnnotatedRegion>* regions_;
  size_t n_;
  std::vector<uint16_t> masks_;
  std::vector<float> percent_ne_;
};

// ---------------------------------------------------------------------------
// Shared run state.
// ---------------------------------------------------------------------------

class Run {
 public:
  explicit Run(const RunOptions& options)
      : options(options), rng(OpSeed(options.seed)) {
    ShapeFor(options.workload, options.tiny, &shape);
    setup_tracer.set_enabled(options.trace);
    probe_tracer.set_enabled(options.trace);
  }

  const RunOptions& options;
  Shape shape;
  Tracer setup_tracer;  // set-ups (traced runs trace every set-up)
  Tracer tracer;        // session rounds
  Tracer probe_tracer;  // extra calls that only split a layer's time
  Checker checker;
  Report report;
  Rng rng;
  Samples setup_s;
  size_t ops_attempted = 0;
  size_t ops_failed = 0;
  double peak_rss_mb = 0.0;
  // Timed op time and op counts of traced / untraced rounds.
  double round_ms[2] = {0.0, 0.0};
  size_t round_ops[2] = {0, 0};
  Samples round_rate;  // ops per second of op time, per round
  // Engine figures of the last ComputeAllRelations and its store.
  EngineStats engine_stats;
  size_t store_bytes = 0;
  size_t store_regions = 0;

  // Traced runs alternate traced and untraced rounds, so one run yields
  // both the per-layer spans and the tracing overhead.
  bool Traced(size_t round) const { return options.trace && round % 2 == 1; }

  // The measured session: rounds until run_seconds of timed op time (a
  // traced run does at least one traced and one untraced round), then the
  // peak RSS. `round_fn(round)` runs one round and returns its op time in
  // ms and its op count, or nullopt to stop.
  struct RoundResult {
    double ms;
    size_t ops;
  };
  void Session(const std::function<std::optional<RoundResult>(size_t)>& round_fn) {
    double timed_ms = 0.0;
    for (size_t round = 0;
         timed_ms < options.seconds * 1e3 || (options.trace && round < 2); ++round) {
      const bool traced = Traced(round);
      tracer.set_enabled(traced);
      const std::optional<RoundResult> done = round_fn(round);
      if (!done.has_value()) break;
      timed_ms += done->ms;
      round_ms[traced ? 1 : 0] += done->ms;
      round_ops[traced ? 1 : 0] += done->ops;
      if (done->ms > 0.0) round_rate.Add(1e3 * static_cast<double>(done->ops) / done->ms);
    }
    peak_rss_mb = PeakRssMb();
  }

  // Counts one op; a failed op is reported and counted.
  bool Op(const Status& status, const char* what) {
    ++ops_attempted;
    if (!status.ok()) {
      if (ops_failed < 10) {
        std::fprintf(stderr, "perfbench: %s failed: %s\n", what,
                     status.ToString().c_str());
      }
      ++ops_failed;
    }
    return status.ok();
  }

  // Durations (ms) of spans named `name` across set-up and session spans.
  Samples Spans(const std::string& name) const {
    Samples out;
    for (const Tracer* t : {&setup_tracer, &tracer, &probe_tracer}) {
      out.Append(t->DurationsMs(name));
    }
    return out;
  }

  Status Compute(Tracer& t, Configuration& configuration) {
    Status status;
    {
      Scope span(t, "engine.ComputeAllRelations");
      status = configuration.ComputeAllRelations(EngineOptions(), &engine_stats);
    }
    if (status.ok()) {
      store_bytes = configuration.relation_store()->bytes();
      store_regions = configuration.relation_store()->regions();
    }
    return status;
  }

  void Info() {
    char line[256];
    std::snprintf(line, sizeof line,
                  "perfbench workload=%s seed=%llu seconds=%g trace=%d "
                  "regions=%d polygons_per_region=%d vertices_per_polygon=%d",
                  options.workload.c_str(),
                  static_cast<unsigned long long>(options.seed),
                  options.seconds, options.trace ? 1 : 0, shape.regions,
                  shape.polygons_per_region, shape.vertices_per_polygon);
    report.Info(line);
  }

  // Metrics every workload reports, then the per-layer figures common to
  // all workloads, then the printout. `live` is the session's final
  // computed configuration, used for the store-health figures.
  int Finish(const Samples& p50_samples_ms, const std::string& p50_note,
             const Configuration& live) {
    report.Add("setup_s", MedianOrNull(setup_s), "s",
               std::to_string(setup_s.size()) + " set-ups, median");
    report.Add("peak_rss_mb", peak_rss_mb, "MB");
    report.Add("ops_per_s", MedianOrNull(round_rate), "ops/s",
               "median over " + std::to_string(round_rate.size()) +
                   " rounds of the round's ops / its op time");
    report.Add("p50_ms", MedianOrNull(p50_samples_ms), "ms", p50_note);
    const size_t attempted = ops_attempted + checker.attempted();
    const size_t failed = ops_failed + checker.failed();
    report.Add("error_rate", Ratio(static_cast<double>(failed),
                                   static_cast<double>(attempted)),
               "ratio",
               std::to_string(ops_failed) + " failed ops, " +
                   std::to_string(checker.failed()) + " failed of " +
                   std::to_string(checker.attempted()) + " checks");
    if (options.trace) AddCommonLayerMetrics(live);
    const bool correct = failed == 0;
    const bool printed = report.Print(
        options.trace ? PerLayerJson() : EndToEndJson(), correct, attempted,
        failed);
    return correct && printed ? 0 : 1;
  }

 private:
  void AddCommonLayerMetrics(const Configuration& live) {
    report.Add("xml.import_ms",
               MedianOrNull(Spans("xml.LoadConfiguration(geometry)")), "ms",
               "LoadConfiguration on the geometry-only file");
    const cardir::obs::MetricsSnapshot snapshot = cardir::obs::CaptureMetrics();
    const auto gauge = snapshot.gauges.find("mem.xml_buffer.peak_bytes");
    report.Add("mem.xml_buffer.peak_mb",
               gauge == snapshot.gauges.end()
                   ? std::nullopt
                   : std::optional<double>(static_cast<double>(gauge->second) / 1e6),
               "MB");
    const Samples compute = Spans("engine.ComputeAllRelations");
    report.Add("sweep.compute_ms", MedianOrNull(compute), "ms",
               "ComputeAllRelations, default EngineOptions");
    report.Add("sweep.explicit_share",
               Ratio(static_cast<double>(engine_stats.computed_pairs),
                     static_cast<double>(engine_stats.total_pairs)),
               "ratio", "EngineStats computed_pairs / total_pairs");
    std::optional<double> pairs_per_s;
    if (!compute.empty()) {
      pairs_per_s = Ratio(static_cast<double>(engine_stats.total_pairs),
                          compute.Median() / 1e3);
    }
    report.Add("sweep.pairs_per_s", pairs_per_s, "1/s");
    report.Add("store.bytes_per_region",
               Ratio(static_cast<double>(store_bytes),
                     static_cast<double>(store_regions)),
               "B", "RelationStore::bytes() / regions() after compute");
    // Store health of the live store against a fresh compute of a copy of
    // the same configuration.
    const RelationStore* store = live.relation_store();
    std::optional<double> bytes_ratio;
    std::optional<double> edited_share;
    if (store != nullptr) {
      Configuration fresh = live;
      if (fresh.ComputeAllRelations().ok()) {
        bytes_ratio = Ratio(static_cast<double>(store->bytes()),
                            static_cast<double>(fresh.relation_store()->bytes()));
      }
      edited_share = Ratio(static_cast<double>(store->edited_rows()),
                           static_cast<double>(store->regions()));
    }
    report.Add("store.bytes_ratio", bytes_ratio, "ratio",
               "live store bytes / fresh compute bytes");
    report.Add("store.edited_row_share", edited_share, "ratio",
               "edited_rows() / regions()");
    // Tracing overhead: traced rounds against untraced rounds of this run.
    std::optional<double> overhead;
    if (round_ops[0] != 0 && round_ops[1] != 0 && round_ms[0] > 0.0) {
      const double untraced = round_ms[0] / static_cast<double>(round_ops[0]);
      const double traced = round_ms[1] / static_cast<double>(round_ops[1]);
      overhead = 100.0 * (traced / untraced - 1.0);
      report.Add("trace.ops_per_s_untraced", 1e3 / untraced, "ops/s");
      report.Add("trace.ops_per_s_traced", 1e3 / traced, "ops/s");
    }
    report.Add("trace.overhead_pct", overhead, "%",
               "mean op time of traced rounds over untraced rounds, minus 1");
    const std::map<std::string, double> self_ms = tracer.SelfMsByLayer();
    double total = 0.0;
    for (const auto& entry : self_ms) total += entry.second;
    for (const char* layer :
         {"xml", "model", "engine", "query", "index", "core", "bench"}) {
      const auto it = self_ms.find(layer);
      const double ms = it == self_ms.end() ? 0.0 : it->second;
      char note[64];
      std::snprintf(note, sizeof note, "self time %.3f ms of %.3f ms", ms, total);
      report.Add(std::string("self.") + layer + "_share", Ratio(ms, total),
                 "ratio", note);
    }
    std::ofstream spans(options.work_dir + "/" + options.workload + ".spans.jsonl");
    setup_tracer.Write(spans, "setup");
    tracer.Write(spans, "session");
    probe_tracer.Write(spans, "probe");
    spans.close();
    if (!spans) std::fprintf(stderr, "perfbench: could not write the span file\n");
  }
};

Result<Configuration> Load(Tracer& tracer, const std::string& path,
                           const char* span_name) {
  Scope span(tracer, span_name);
  return cardir::LoadConfiguration(path);
}

// Batch workloads: kSetupRepeats untimed warm-up cycles (set-up), then a
// session of one cycle per round. `cycle(tracer, traced)` returns one
// cycle's time in ms, or nullopt when a step failed.
Samples RunCycles(Run& run, const std::function<std::optional<double>(Tracer&, bool)>& cycle) {
  for (int k = 0; k < kSetupRepeats; ++k) {
    run.setup_s.Add(cycle(run.setup_tracer, run.options.trace).value_or(0.0) / 1e3);
  }
  Samples cycle_ms;
  run.Session([&](size_t round) -> std::optional<Run::RoundResult> {
    const std::optional<double> ms = cycle(run.tracer, run.Traced(round));
    if (!ms.has_value()) return std::nullopt;
    cycle_ms.Add(*ms);
    return Run::RoundResult{*ms, 1};
  });
  return cycle_ms;
}

// ---------------------------------------------------------------------------
// persist: load → compute → save (full DTD) → reopen, one cycle at a time.
// ---------------------------------------------------------------------------

int RunPersist(Run& run) {
  const std::string saved = run.options.work_dir + "/persist-saved.xml";
  double saved_bytes = 0.0;
  size_t pair_count = 0;
  Configuration last;

  // One cycle; traced cycles also time ConfigurationToXml and ParseXml on
  // their own, outside the cycle.
  auto cycle = [&](Tracer& tracer, bool traced) -> std::optional<double> {
    tracer.NextOp();
    Configuration computed;
    Configuration reopened;
    const int64_t t0 = NowNs();
    {
      Scope op(tracer, "bench.cycle");
      Result<Configuration> loaded =
          Load(tracer, run.options.input_path, "xml.LoadConfiguration(geometry)");
      if (!run.Op(loaded.status(), "LoadConfiguration(geometry)")) return std::nullopt;
      computed = std::move(loaded).value();
      if (!run.Op(run.Compute(tracer, computed), "ComputeAllRelations")) return std::nullopt;
      Status status;
      {
        Scope span(tracer, "xml.SaveConfiguration");
        status = cardir::SaveConfiguration(computed, saved);
      }
      if (!run.Op(status, "SaveConfiguration")) return std::nullopt;
      Result<Configuration> again = Load(tracer, saved, "xml.LoadConfiguration(saved)");
      if (!run.Op(again.status(), "LoadConfiguration(saved)")) return std::nullopt;
      reopened = std::move(again).value();
    }
    const double ms = Ms(NowNs() - t0);
    saved_bytes = static_cast<double>(std::filesystem::file_size(saved));
    pair_count = computed.relation_count();
    CheckSameRelations(run.checker, computed, reopened);
    if (traced) {
      run.probe_tracer.NextOp();
      {
        Scope span(run.probe_tracer, "xml.ConfigurationToXml");
        const std::string text = cardir::ConfigurationToXml(computed);
        run.checker.Check(!text.empty(), "persist: ConfigurationToXml output");
      }
      std::ifstream file(saved);
      std::ostringstream buffer;
      buffer << file.rdbuf();
      const std::string bytes = buffer.str();
      bool parsed = false;
      {
        Scope span(run.probe_tracer, "xml.ParseXml");
        parsed = cardir::ParseXml(bytes).ok();
      }
      run.checker.Check(parsed, "persist: ParseXml of the saved file");
    }
    last = std::move(computed);
    return ms;
  };

  const Samples cycle_ms = RunCycles(run, cycle);
  std::filesystem::remove(saved);

  run.report.Info("mix cycle=1.00 (load geometry, compute, save full DTD, reopen)");
  run.report.Add("pipeline_s", MedianOrNull(cycle_ms, 1e-3), "s",
                 std::to_string(cycle_ms.size()) + " cycles, median");
  run.report.Add("saved_mb", saved_bytes / 1e6, "MB");
  if (run.options.trace) {
    run.report.Add("xml.save_ms", MedianOrNull(run.Spans("xml.SaveConfiguration")), "ms");
    run.report.Add("xml.serialize_ms", MedianOrNull(run.Spans("xml.ConfigurationToXml")), "ms");
    run.report.Add("xml.reopen_ms", MedianOrNull(run.Spans("xml.LoadConfiguration(saved)")), "ms");
    run.report.Add("xml.parse_ms", MedianOrNull(run.Spans("xml.ParseXml")), "ms");
    run.report.Add("xml.bytes_per_pair", Ratio(saved_bytes, static_cast<double>(pair_count)), "B");
  }
  return run.Finish(cycle_ms, "one pipeline cycle", last);
}

// ---------------------------------------------------------------------------
// overlap: load → compute → CDR% over a fixed sample of explicit pairs.
// ---------------------------------------------------------------------------

int RunOverlap(Run& run) {
  const size_t sample_size = run.options.tiny ? 100 : 2000;
  std::vector<std::pair<std::string, std::string>> sample;
  size_t residue_tiles = 0;
  Configuration last;

  auto choose_sample = [&](const Configuration& configuration) {
    const RelationStore* store = configuration.relation_store();
    const size_t n = configuration.regions().size();
    for (size_t tries = 0; sample.size() < sample_size && tries < 1000 * sample_size; ++tries) {
      const size_t i = run.rng.Index(n);
      const size_t j = run.rng.Index(n);
      if (i != j && store->IsExplicit(i, j)) {
        sample.emplace_back(configuration.regions()[i].id, configuration.regions()[j].id);
      }
    }
  };

  auto cycle = [&](Tracer& tracer, bool /*traced*/) -> std::optional<double> {
    tracer.NextOp();
    Configuration configuration;
    std::vector<Result<PercentageMatrix>> matrices;
    matrices.reserve(sample_size);
    int64_t t0 = NowNs();
    int64_t excluded_ns = 0;
    {
      Scope op(tracer, "bench.cycle");
      Result<Configuration> loaded =
          Load(tracer, run.options.input_path, "xml.LoadConfiguration(geometry)");
      if (!run.Op(loaded.status(), "LoadConfiguration(geometry)")) return std::nullopt;
      configuration = std::move(loaded).value();
      if (!run.Op(run.Compute(tracer, configuration), "ComputeAllRelations")) return std::nullopt;
      if (sample.empty()) {  // input selection, not program work
        const int64_t s0 = NowNs();
        choose_sample(configuration);
        excluded_ns = NowNs() - s0;
      }
      for (const auto& [primary, reference] : sample) {
        Scope span(tracer, "core.ComputePercentages");
        matrices.push_back(configuration.ComputePercentages(primary, reference));
      }
    }
    const double ms = Ms(NowNs() - t0 - excluded_ns);
    for (size_t k = 0; k < sample.size(); ++k) {
      const std::string what = "overlap " + sample[k].first + "->" + sample[k].second;
      if (!run.Op(matrices[k].status(), "ComputePercentages")) continue;
      const Result<CardinalRelation> cdr = cardir::ComputeCdr(
          configuration.FindRegion(sample[k].first)->geometry,
          configuration.FindRegion(sample[k].second)->geometry);
      if (!run.checker.Check(cdr.ok(), what + ": direct ComputeCdr")) continue;
      CheckRelation(run.checker, what + " StoredRelation",
                    configuration.StoredRelation(sample[k].first, sample[k].second), *cdr);
      CheckPercentMatrix(run.checker, what, *matrices[k], *cdr, &residue_tiles);
    }
    last = std::move(configuration);
    return ms;
  };

  const Samples cycle_ms = RunCycles(run, cycle);
  run.checker.Check(sample.size() == sample_size, "overlap: explicit-pair sample size");

  char mix[160];
  std::snprintf(mix, sizeof mix,
                "mix cycle=1.00 (load geometry, compute, %zu ComputePercentages on explicit pairs)",
                sample.size());
  run.report.Info(mix);
  run.report.Add("pipeline_s", MedianOrNull(cycle_ms, 1e-3), "s",
                 std::to_string(cycle_ms.size()) + " cycles, median");
  run.report.Add("percent.residue_tiles", static_cast<double>(residue_tiles), "count",
                 "CDR% tiles in (0, 1e-9] percent outside the Compute-CDR relation");
  if (run.options.trace) {
    run.report.Add("percent.call_us", MedianOrNull(run.Spans("core.ComputePercentages"), 1e3), "us");
  }
  return run.Finish(cycle_ms, "one pipeline cycle", last);
}

// ---------------------------------------------------------------------------
// browse: read-only closed loop over lookups, related searches and §4
// queries on a computed, indexed configuration.
// ---------------------------------------------------------------------------

enum class QueryKind { kAnchored, kThematic, kPercent, kThreeVar, kPaper };

struct QueryTemplate {
  QueryKind kind;
  const char* name;
  const char* text;  // %s = the anchor id
};

const std::vector<QueryTemplate>& QueryTemplates() {
  static const std::vector<QueryTemplate> templates = {
      {QueryKind::kAnchored, "anchored", "(b, a) | b = %s, a N b"},
      {QueryKind::kThematic, "anchored_thematic",
       "(b, a) | b = %s, color(a) = red, a {S, SW, W, S:SW, SW:W} b"},
      {QueryKind::kPercent, "percent",
       "(b, a) | b = %s, color(a) = green, percent(a, NE, b) > 50"},
      {QueryKind::kThreeVar, "three_var",
       "(c, a, b) | c = %s, a N c, color(b) = blue, b E a"},
      // The paper's §4 query, with an R that returns rows on a map.
      {QueryKind::kPaper, "paper",
       "(a, b) | color(a) = red, color(b) = blue, a NE b"},
  };
  return templates;
}

const std::vector<std::string>& RelatedRelations() {
  static const std::vector<std::string> relations = {
      "{N, NE, N:NE}", "{S, SW, S:SW}", "{E, W}", "{NW, N:NW, W:NW}"};
  return relations;
}

// The rows the query of `kind` anchored at `anchor` must return, from a
// scan with the oracle.
RowDigest ExpectedRows(QueryKind kind, size_t anchor,
                       const Configuration& configuration, Truth& truth) {
  const std::vector<AnnotatedRegion>& regions = configuration.regions();
  const size_t n = regions.size();
  const CardinalRelation north(Tile::kN);
  const CardinalRelation east(Tile::kE);
  const CardinalRelation north_east(Tile::kNE);
  static const DisjunctiveRelation south_west =
      *DisjunctiveRelation::Parse("{S, SW, W, S:SW, SW:W}");
  RowDigest rows;
  for (size_t a = 0; a < n; ++a) {
    switch (kind) {
      case QueryKind::kAnchored:
        if (a != anchor && truth.Relation(a, anchor) == north) rows.Add({anchor, a});
        break;
      case QueryKind::kThematic:
        if (a != anchor && regions[a].color == "red" &&
            south_west.Contains(truth.Relation(a, anchor))) {
          rows.Add({anchor, a});
        }
        break;
      case QueryKind::kPercent:
        if (a != anchor && regions[a].color == "green" &&
            truth.PercentNE(a, anchor) > 50.0) {
          rows.Add({anchor, a});
        }
        break;
      case QueryKind::kThreeVar:
        if (a == anchor || truth.Relation(a, anchor) != north) break;
        for (size_t b = 0; b < n; ++b) {
          if (b != a && regions[b].color == "blue" && truth.Relation(b, a) == east) {
            rows.Add({anchor, a, b});
          }
        }
        break;
      case QueryKind::kPaper:
        if (regions[a].color != "red") break;
        for (size_t b = 0; b < n; ++b) {
          if (b != a && regions[b].color == "blue" &&
              truth.Relation(a, b) == north_east) {
            rows.Add({a, b});
          }
        }
        break;
    }
  }
  return rows;
}

std::map<std::string, size_t> IndexOf(const Configuration& configuration) {
  std::map<std::string, size_t> index_of;
  for (size_t i = 0; i < configuration.regions().size(); ++i) {
    index_of.emplace(configuration.regions()[i].id, i);
  }
  return index_of;
}

// Candidate tuples of a parsed query: the product of each variable's domain
// after its identity and thematic conditions.
double CandidateTuples(const Query& query, const Configuration& configuration) {
  double product = 1.0;
  for (const std::string& variable : query.variables) {
    size_t domain = 0;
    for (const AnnotatedRegion& region : configuration.regions()) {
      bool ok = true;
      for (const auto& c : query.identity_conditions) {
        if (c.variable == variable && region.id != c.region && region.name != c.region) ok = false;
      }
      for (const auto& c : query.thematic_conditions) {
        if (c.variable != variable) continue;
        if ((c.attribute == "color" ? region.color : region.name) != c.value) ok = false;
      }
      if (ok) ++domain;
    }
    product *= static_cast<double>(domain);
  }
  return product;
}

enum class BrowseOp { kLookup, kRelated, kQuery };

struct BrowsePlan {
  size_t lookups;
  size_t related;
  size_t queries[5];  // per QueryTemplates() entry
};

int RunBrowse(Run& run) {
  // One round: a fixed op composition whose parts take comparable time, so
  // ops_per_s moves when any of them does; the order is shuffled per round
  // and every anchor is drawn afresh. The plain anchored query holds the
  // middle of the query latency distribution, so query_p50 sits inside one
  // kind's cluster instead of on the edge between two.
  const BrowsePlan plan = run.options.tiny
                              ? BrowsePlan{40, 20, {4, 2, 2, 2, 1}}
                              : BrowsePlan{20000, 2000, {24, 12, 12, 12, 1}};

  std::optional<Configuration> configuration;
  std::optional<DirectionalIndex> index;
  std::vector<DisjunctiveRelation> related_relations;
  for (const std::string& text : RelatedRelations()) {
    related_relations.push_back(*DisjunctiveRelation::Parse(text));
  }
  std::unique_ptr<Truth> truth;
  std::map<std::string, size_t> index_of;

  Samples lookup_us, related_us, query_ms;
  std::map<QueryKind, Samples> query_kind_ms;
  double candidates = 0.0, candidate_rows = 0.0;
  DirectionalQueryStats related_stats;

  struct Op {
    BrowseOp type;
    size_t a;
    size_t b;  // lookup reference / related relation / query template
  };

  // Runs one op; returns its time in ms (nullopt when it failed).
  auto run_op = [&](Tracer& tracer, const Op& op, bool collect) -> std::optional<double> {
    tracer.NextOp();
    const std::vector<AnnotatedRegion>& regions = configuration->regions();
    switch (op.type) {
      case BrowseOp::kLookup: {
        std::optional<CardinalRelation> got;
        const int64_t t0 = NowNs();
        {
          Scope root(tracer, "bench.lookup");
          Scope span(tracer, "model.StoredRelation");
          got = configuration->StoredRelation(regions[op.a].id, regions[op.b].id);
        }
        const double ms = Ms(NowNs() - t0);
        ++run.ops_attempted;
        lookup_us.Add(ms * 1e3);
        CheckRelation(run.checker, "browse lookup " + regions[op.a].id + "->" + regions[op.b].id,
                      got, truth->Relation(op.a, op.b));
        return ms;
      }
      case BrowseOp::kRelated: {
        DirectionalQueryStats stats;
        Result<std::vector<std::string>> found = std::vector<std::string>();
        const int64_t t0 = NowNs();
        {
          Scope root(tracer, "bench.related");
          Scope span(tracer, "index.FindMatching");
          found = index->FindMatching(regions[op.a].id, related_relations[op.b], &stats);
        }
        const double ms = Ms(NowNs() - t0);
        if (!run.Op(found.status(), "FindMatching")) return std::nullopt;
        related_us.Add(ms * 1e3);
        if (collect) {
          related_stats.refined += stats.refined;
          related_stats.results += stats.results;
        }
        std::vector<std::string> want;
        for (size_t a = 0; a < regions.size(); ++a) {
          if (a != op.a && related_relations[op.b].Contains(truth->Relation(a, op.a))) {
            want.push_back(regions[a].id);
          }
        }
        CheckIds(run.checker, "browse related " + RelatedRelations()[op.b] + " " + regions[op.a].id,
                 *found, want);
        return ms;
      }
      case BrowseOp::kQuery: {
        const QueryTemplate& tmpl = QueryTemplates()[op.b];
        char text[160];
        std::snprintf(text, sizeof text, tmpl.text, regions[op.a].id.c_str());
        Result<Query> query = Status::Internal("not parsed");
        Result<QueryResult> result = Status::Internal("not evaluated");
        const int64_t t0 = NowNs();
        {
          Scope root(tracer, "bench.query");
          {
            Scope span(tracer, "query.Parse");
            query = Query::Parse(text);
          }
          if (query.ok()) {
            Scope span(tracer, "query.EvaluateQuery");
            result = cardir::EvaluateQuery(*configuration, *query);
          }
        }
        const int64_t t1 = NowNs();
        if (!run.Op(query.ok() ? result.status() : query.status(), "query")) return std::nullopt;
        const double ms = Ms(t1 - t0);
        query_ms.Add(ms);
        query_kind_ms[tmpl.kind].Add(ms);
        if (collect) {
          candidates += CandidateTuples(*query, *configuration);
          candidate_rows += static_cast<double>(result->rows.size());
          if (tmpl.kind == QueryKind::kPercent) {
            // Splits the percent query's cost: direct Compute-CDR% calls
            // on a few of its candidate pairs (green primaries).
            size_t probes = 0;
            for (size_t a = 0; a < regions.size() && probes < 4; ++a) {
              if (a == op.a || regions[a].color != "green") continue;
              ++probes;
              run.probe_tracer.NextOp();
              Scope span(run.probe_tracer, "core.ComputePercentages");
              run.checker.Check(
                  configuration->ComputePercentages(regions[a].id, regions[op.a].id).ok(),
                  "browse: ComputePercentages probe");
            }
          }
        }
        CheckRows(run.checker, std::string("browse query ") + text, result->rows,
                  ExpectedRows(tmpl.kind, op.a, *configuration, *truth), index_of);
        return ms;
      }
    }
    return std::nullopt;
  };

  auto random_pair = [&run](size_t n) {
    const size_t a = run.rng.Index(n);
    size_t b = run.rng.Index(n - 1);
    if (b >= a) ++b;
    return std::make_pair(a, b);
  };

  auto make_round = [&](size_t n) {
    std::vector<Op> ops;
    for (size_t k = 0; k < plan.lookups; ++k) {
      const auto [a, b] = random_pair(n);
      ops.push_back(Op{BrowseOp::kLookup, a, b});
    }
    for (size_t k = 0; k < plan.related; ++k) {
      const size_t anchor = run.rng.Index(n);
      ops.push_back(Op{BrowseOp::kRelated, anchor, run.rng.Index(related_relations.size())});
    }
    for (size_t kind = 0; kind < QueryTemplates().size(); ++kind) {
      for (size_t k = 0; k < plan.queries[kind]; ++k) {
        ops.push_back(Op{BrowseOp::kQuery, run.rng.Index(n), kind});
      }
    }
    for (size_t i = ops.size(); i > 1; --i) std::swap(ops[i - 1], ops[run.rng.Index(i)]);
    return ops;
  };

  // Set-up: load, compute, index build and one warm-up op of each kind.
  for (int k = 0; k < kSetupRepeats; ++k) {
    index.reset();
    configuration.reset();
    const int64_t t0 = NowNs();
    run.setup_tracer.NextOp();
    Result<Configuration> loaded =
        Load(run.setup_tracer, run.options.input_path, "xml.LoadConfiguration(geometry)");
    if (!run.Op(loaded.status(), "LoadConfiguration(geometry)")) break;
    configuration.emplace(std::move(loaded).value());
    if (!run.Op(run.Compute(run.setup_tracer, *configuration), "ComputeAllRelations")) break;
    Result<DirectionalIndex> built = Status::Internal("not built");
    {
      Scope span(run.setup_tracer, "index.Build");
      built = DirectionalIndex::Build(*configuration);
    }
    if (!run.Op(built.status(), "DirectionalIndex::Build")) break;
    index.emplace(std::move(built).value());
    const int64_t t_built = NowNs();
    if (truth == nullptr) {
      truth = std::make_unique<Truth>(*configuration);
    } else {
      truth->Reset(*configuration);
    }
    index_of = IndexOf(*configuration);
    std::vector<Op> warm = {{BrowseOp::kLookup, 0, 1}, {BrowseOp::kRelated, 0, 0}};
    for (size_t kind = 0; kind < QueryTemplates().size(); ++kind) {
      warm.push_back(Op{BrowseOp::kQuery, 0, kind});
    }
    double warm_ms = 0.0;
    for (const Op& op : warm) {
      warm_ms += run_op(run.setup_tracer, op, false).value_or(0.0);
    }
    run.setup_s.Add((Ms(t_built - t0) + warm_ms) / 1e3);
  }
  // Warm-up samples belong to set-up, not to the session.
  lookup_us = Samples();
  related_us = Samples();
  query_ms = Samples();
  query_kind_ms.clear();

  run.Session([&](size_t round) -> std::optional<Run::RoundResult> {
    if (!configuration.has_value() || !index.has_value()) return std::nullopt;
    const std::vector<Op> ops = make_round(configuration->regions().size());
    double round_ms = 0.0;
    for (const Op& op : ops) {
      round_ms += run_op(run.tracer, op, run.Traced(round)).value_or(0.0);
    }
    return Run::RoundResult{round_ms, ops.size()};
  });

  double round_size = static_cast<double>(plan.lookups + plan.related);
  for (size_t count : plan.queries) round_size += static_cast<double>(count);
  char share[64];
  std::snprintf(share, sizeof share, "mix lookup=%.4f related=%.4f",
                static_cast<double>(plan.lookups) / round_size,
                static_cast<double>(plan.related) / round_size);
  std::string mix = share;
  for (size_t kind = 0; kind < QueryTemplates().size(); ++kind) {
    std::snprintf(share, sizeof share, " %s=%.4f", QueryTemplates()[kind].name,
                  static_cast<double>(plan.queries[kind]) / round_size);
    mix += share;
  }
  run.report.Info(mix);
  run.report.AddLatency("lookup", lookup_us, "us");
  run.report.AddLatency("related", related_us, "us");
  run.report.AddLatency("query", query_ms, "ms");
  if (run.options.trace) {
    run.report.Add("percent.call_us", MedianOrNull(run.Spans("core.ComputePercentages"), 1e3), "us",
                   "ComputePercentages on percent-query candidate pairs");
    run.report.Add("query.parse_us", MedianOrNull(run.Spans("query.Parse"), 1e3), "us");
    run.report.Add("query.anchored_ms", MedianOrNull(query_kind_ms[QueryKind::kAnchored]), "ms",
                   "anchored two-variable direction query");
    run.report.Add("query.thematic_ms", MedianOrNull(query_kind_ms[QueryKind::kThematic]), "ms",
                   "anchored disjunctive query with a thematic atom");
    run.report.Add("query.percent_ms", MedianOrNull(query_kind_ms[QueryKind::kPercent]), "ms");
    run.report.Add("query.three_var_ms", MedianOrNull(query_kind_ms[QueryKind::kThreeVar]), "ms");
    run.report.Add("query.paper_ms", MedianOrNull(query_kind_ms[QueryKind::kPaper]), "ms");
    run.report.Add("query.candidates_per_row", Ratio(candidates, candidate_rows), "ratio");
    run.report.Add("index.build_ms", MedianOrNull(run.Spans("index.Build")), "ms");
    run.report.Add("index.refined_per_result",
                   Ratio(static_cast<double>(related_stats.refined),
                         static_cast<double>(related_stats.results)),
                   "ratio");
  }
  const Configuration empty;
  return run.Finish(query_ms, "one section-4 query",
                    configuration.has_value() ? *configuration : empty);
}

// ---------------------------------------------------------------------------
// edit: closed loop of grow / insert / remove edits, each followed by a
// read-back lookup, on a large computed configuration.
// ---------------------------------------------------------------------------

enum class EditKind { kGrow, kInsert, kRemove };

int RunEdit(Run& run) {
  const MapGrid grid(run.shape.regions);
  const size_t n0 = static_cast<size_t>(run.shape.regions);
  std::optional<Configuration> configuration;
  std::deque<std::string> inserted;
  size_t next_insert = 0;

  Samples edit_ms, lookup_us;
  std::optional<double> reresolved, implicit;
  size_t collected_edits = 0;

  auto original_id = [](size_t i) { return std::string("r").append(std::to_string(i)); };

  // A small polygon for region `cell`: half the time it straddles the line
  // to a neighbouring cell, widening the region's box across it.
  auto grow_polygon = [&](int cell) {
    const cardir::Box own = grid.CellBounds(cell);
    const double side = 0.3 * grid.cell_w;
    const int cx = cell % grid.grid;
    const int cy = cell / grid.grid;
    double x = run.rng.Uniform(own.min_x() + side / 2, own.max_x() - side / 2);
    double y = run.rng.Uniform(own.min_y() + side / 2, own.max_y() - side / 2);
    if (run.rng.Uniform() < 0.5) {
      if (run.rng.Uniform() < 0.5 && cx + 1 < grid.grid) {
        x = (cx + 1) * grid.cell_w;
      } else if (cy + 1 < grid.grid) {
        y = (cy + 1) * grid.cell_h;
      } else {
        x = cx * grid.cell_w;
      }
    }
    return StarPolygon(run.rng, 8, cardir::Box(x - side / 2, y - side / 2,
                                               x + side / 2, y + side / 2));
  };

  // Applies one edit and records its latency. Returns {ms, edited id}; the
  // id is empty after a remove. `collect` diffs the delta counters around
  // the call (outside its timing).
  struct Edited {
    double ms;
    std::string id;
  };
  auto edit = [&](Tracer& tracer, EditKind kind, bool collect) -> std::optional<Edited> {
    tracer.NextOp();
    std::string id;
    cardir::Polygon polygon;
    AnnotatedRegion region;
    switch (kind) {
      case EditKind::kGrow: {
        const size_t target = run.rng.Index(n0);
        id = original_id(target);
        polygon = grow_polygon(static_cast<int>(target));
        break;
      }
      case EditKind::kInsert: {
        region.id = id = std::string("e").append(std::to_string(next_insert++));
        region.color = Palette()[run.rng.Index(Palette().size())];
        const cardir::Box cell = grid.CellBounds(static_cast<int>(run.rng.Index(n0)));
        const double dx = 0.2 * cell.width();
        const double dy = 0.2 * cell.height();
        region.geometry.AddPolygon(StarPolygon(
            run.rng, 8, cardir::Box(cell.min_x() + dx, cell.min_y() + dy,
                                    cell.max_x() - dx, cell.max_y() - dy)));
        break;
      }
      case EditKind::kRemove:
        id = inserted.front();
        inserted.pop_front();
        break;
    }
    cardir::obs::MetricsSnapshot before;
    if (collect) before = cardir::obs::CaptureMetrics();
    Status status;
    const int64_t t0 = NowNs();
    switch (kind) {
      case EditKind::kGrow: {
        Scope root(tracer, "bench.grow");
        Scope span(tracer, "engine.AddPolygonToRegion");
        status = configuration->AddPolygonToRegion(id, std::move(polygon));
        break;
      }
      case EditKind::kInsert: {
        Scope root(tracer, "bench.insert");
        Scope span(tracer, "engine.AddRegion");
        status = configuration->AddRegion(std::move(region));
        break;
      }
      case EditKind::kRemove: {
        Scope root(tracer, "bench.remove");
        Scope span(tracer, "engine.RemoveRegion");
        status = configuration->RemoveRegion(id);
        break;
      }
    }
    const double ms = Ms(NowNs() - t0);
    if (collect) {
      const cardir::obs::MetricsSnapshot diff = cardir::obs::CaptureMetrics().Diff(before);
      const std::optional<double> r = CounterOf(diff, "delta.pairs_reresolved");
      const std::optional<double> i = CounterOf(diff, "delta.pairs_implicit");
      if (r.has_value() && i.has_value()) {
        reresolved = reresolved.value_or(0.0) + *r;
        implicit = implicit.value_or(0.0) + *i;
      }
      ++collected_edits;
    }
    if (!run.Op(status, "edit")) return std::nullopt;
    if (kind == EditKind::kInsert) inserted.push_back(id);
    return Edited{ms, kind == EditKind::kRemove ? std::string() : id};
  };

  // One StoredRelation read of `edited` (a random region after a remove)
  // against a random partner, checked against Compute-CDR on the current
  // geometry. Returns its time in ms.
  auto lookup = [&](Tracer& tracer, const std::string& edited) -> double {
    tracer.NextOp();
    const std::string primary = edited.empty() ? original_id(run.rng.Index(n0)) : edited;
    std::string partner = primary;
    while (partner == primary) partner = original_id(run.rng.Index(n0));
    std::optional<CardinalRelation> got;
    const int64_t t0 = NowNs();
    {
      Scope root(tracer, "bench.lookup");
      Scope span(tracer, "model.StoredRelation");
      got = configuration->StoredRelation(primary, partner);
    }
    const double ms = Ms(NowNs() - t0);
    ++run.ops_attempted;
    const Result<CardinalRelation> want = cardir::ComputeCdr(
        configuration->FindRegion(primary)->geometry,
        configuration->FindRegion(partner)->geometry);
    if (run.checker.Check(want.ok(), "edit: direct ComputeCdr")) {
      CheckRelation(run.checker, "edit lookup " + primary + "->" + partner, got, *want);
    }
    return ms;
  };

  // Set-up: load, compute, and one warm-up edit of each kind with its
  // read-back (the first edit also builds the delta engine).
  const std::vector<EditKind> warm = {EditKind::kInsert, EditKind::kInsert,
                                      EditKind::kGrow, EditKind::kRemove};
  for (int k = 0; k < kSetupRepeats; ++k) {
    configuration.reset();
    inserted.clear();
    run.setup_tracer.NextOp();
    const int64_t t0 = NowNs();
    Result<Configuration> loaded =
        Load(run.setup_tracer, run.options.input_path, "xml.LoadConfiguration(geometry)");
    if (!run.Op(loaded.status(), "LoadConfiguration(geometry)")) break;
    configuration.emplace(std::move(loaded).value());
    if (!run.Op(run.Compute(run.setup_tracer, *configuration), "ComputeAllRelations")) break;
    double setup_ms = Ms(NowNs() - t0);
    for (EditKind kind : warm) {
      const std::optional<Edited> edited = edit(run.setup_tracer, kind, false);
      if (!edited.has_value()) break;
      setup_ms += edited->ms + lookup(run.setup_tracer, edited->id);
    }
    run.setup_s.Add(setup_ms / 1e3);
  }

  // Session: rounds of grow, insert, grow, remove, each edit followed by
  // its read-back; n stays constant.
  const std::vector<EditKind> round_kinds = {EditKind::kGrow, EditKind::kInsert,
                                             EditKind::kGrow, EditKind::kRemove};
  run.Session([&](size_t round) -> std::optional<Run::RoundResult> {
    if (!configuration.has_value() || inserted.empty()) return std::nullopt;
    double round_ms = 0.0;
    for (EditKind kind : round_kinds) {
      const std::optional<Edited> edited = edit(run.tracer, kind, run.Traced(round));
      if (!edited.has_value()) return std::nullopt;
      edit_ms.Add(edited->ms);
      const double read_ms = lookup(run.tracer, edited->id);
      lookup_us.Add(read_ms * 1e3);
      round_ms += edited->ms + read_ms;
    }
    return Run::RoundResult{round_ms, 2 * round_kinds.size()};
  });

  // The maintained store equals a fresh compute of the final configuration.
  if (configuration.has_value()) {
    Configuration copy = *configuration;
    const bool computed = copy.ComputeAllRelations().ok();
    run.checker.Check(computed && copy.relation_store()->Digest() ==
                                      configuration->relation_store()->Digest(),
                      "edit: maintained store digest differs from a fresh compute");
  }

  run.report.Info("mix grow=0.50 insert=0.25 remove=0.25, one lookup after each edit");
  run.report.AddLatency("lookup", lookup_us, "us");
  run.report.AddLatency("edit", edit_ms, "ms");
  if (run.options.trace) {
    run.report.Add("delta.grow_us", MedianOrNull(run.tracer.DurationsMs("engine.AddPolygonToRegion"), 1e3), "us");
    run.report.Add("delta.insert_us", MedianOrNull(run.tracer.DurationsMs("engine.AddRegion"), 1e3), "us");
    run.report.Add("delta.remove_us", MedianOrNull(run.tracer.DurationsMs("engine.RemoveRegion"), 1e3), "us");
    std::optional<double> per_edit, implicit_share;
    if (reresolved.has_value() && collected_edits != 0) {
      per_edit = *reresolved / static_cast<double>(collected_edits);
      implicit_share = Ratio(*implicit, *reresolved + *implicit);
    }
    run.report.Add("delta.reresolved_per_edit", per_edit, "pairs");
    run.report.Add("delta.implicit_share", implicit_share, "ratio",
                   "pairs_implicit / (pairs_reresolved + pairs_implicit)");
    std::optional<double> late_early;
    if (edit_ms.size() >= 20) {
      const size_t window = edit_ms.size() / 5;
      late_early = Ratio(edit_ms.WindowMedian(edit_ms.size() - window, edit_ms.size()),
                         edit_ms.WindowMedian(0, window));
    }
    run.report.Add("delta.late_early_p50_ratio", late_early, "ratio",
                   "median edit latency, last fifth over first fifth");
  }
  const Configuration empty;
  return run.Finish(edit_ms, "one edit",
                    configuration.has_value() ? *configuration : empty);
}

}  // namespace

int RunWorkload(const RunOptions& options) {
  Run run(options);
  run.Info();
  if (options.workload == "persist") return RunPersist(run);
  if (options.workload == "overlap") return RunOverlap(run);
  if (options.workload == "browse") return RunBrowse(run);
  if (options.workload == "edit") return RunEdit(run);
  std::fprintf(stderr, "perfbench: unknown workload '%s'\n", options.workload.c_str());
  return 2;
}

int SelfTest(const RunOptions& options) {
  Shape shape;
  ShapeFor("browse", /*tiny=*/true, &shape);
  Result<Configuration> parsed =
      cardir::ConfigurationFromXml(GenerateInputXml(shape, options.seed));
  if (!parsed.ok() || !parsed->ComputeAllRelations().ok()) {
    std::fprintf(stderr, "perfbench selftest: could not build the input\n");
    return 1;
  }
  const Configuration& computed = *parsed;
  const std::vector<AnnotatedRegion>& regions = computed.regions();
  Truth truth(computed);
  int mistakes = 0;
  // Runs `check` on a fresh checker and compares the failure count.
  auto expect = [&mistakes](const char* what, bool should_fail,
                            const std::function<void(Checker&)>& check) {
    Checker checker;
    check(checker);
    const bool failed = checker.failed() != 0;
    std::printf("selftest %-44s %s\n", what, failed == should_fail ? "ok" : "WRONG");
    if (failed != should_fail) ++mistakes;
  };

  // A different, still non-empty relation: toggles tile B (or S).
  auto corrupt = [](const CardinalRelation& relation) {
    return CardinalRelation::FromMask(
        static_cast<uint16_t>(relation.mask() ^ (relation.mask() == 1 ? 2 : 1)));
  };
  const CardinalRelation right = truth.Relation(0, 1);
  const CardinalRelation wrong = corrupt(right);
  expect("stored relation, right", false, [&](Checker& c) {
    CheckRelation(c, "lookup", computed.StoredRelation(regions[0].id, regions[1].id), right);
  });
  expect("stored relation, wrong relation fed", true, [&](Checker& c) {
    CheckRelation(c, "lookup", wrong, right);
  });

  Result<Configuration> reopened =
      cardir::ConfigurationFromXml(cardir::ConfigurationToXml(computed));
  if (!reopened.ok()) return 1;
  expect("persist sequence, reopened", false,
         [&](Checker& c) { CheckSameRelations(c, computed, *reopened); });
  std::vector<cardir::RelationRecord> records = reopened->relations();
  records[records.size() / 2].relation = corrupt(records[records.size() / 2].relation);
  reopened->SetRelations(std::move(records));
  expect("persist sequence, one wrong relation", true,
         [&](Checker& c) { CheckSameRelations(c, computed, *reopened); });

  const QueryTemplate& paper = QueryTemplates()[4];
  Result<QueryResult> result = cardir::EvaluateQuery(computed, paper.text);
  if (!result.ok() || result->rows.empty()) {
    std::fprintf(stderr, "perfbench selftest: paper query returned no rows\n");
    return 1;
  }
  const RowDigest want = ExpectedRows(QueryKind::kPaper, 0, computed, truth);
  const std::map<std::string, size_t> index_of = IndexOf(computed);
  expect("query rows, right", false,
         [&](Checker& c) { CheckRows(c, "paper", result->rows, want, index_of); });
  expect("query rows, one row dropped", true, [&](Checker& c) {
    std::vector<QueryRow> rows = result->rows;
    rows.pop_back();
    CheckRows(c, "paper", rows, want, index_of);
  });
  expect("query rows, one row swapped for another", true, [&](Checker& c) {
    std::vector<QueryRow> rows = result->rows;
    rows.back().region_ids.back() = rows.front().region_ids.front();
    CheckRows(c, "paper", rows, want, index_of);
  });

  Result<PercentageMatrix> matrix = computed.ComputePercentages(regions[0].id, regions[1].id);
  if (!matrix.ok()) return 1;
  expect("CDR% matrix, right relation", false,
         [&](Checker& c) { CheckPercentMatrix(c, "percent", *matrix, right); });
  expect("CDR% matrix, wrong relation fed", true,
         [&](Checker& c) { CheckPercentMatrix(c, "percent", *matrix, wrong); });

  std::printf(mistakes == 0 ? "selftest ok\n" : "selftest FAILED\n");
  return mistakes == 0 ? 0 : 1;
}

}  // namespace perfbench
