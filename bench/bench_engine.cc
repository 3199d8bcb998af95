// E20/E24/E25: the all-pairs engines — the serial Compute-CDR loop vs the
// sweep join (serial and strip-parallel) vs single-mutation delta
// maintenance, on map and overlap configurations. Plain main (not
// google-benchmark) because each data point is one long wall-clock
// measurement and the binary also emits BENCH_engine.json for the
// perf-trajectory ledger. Engine runs also record the observability
// counters (implicit-resolution rate, chunks stolen, pairs/sec) so the
// bench trajectory captures more than wall-clock, and each run's counters
// are checked against the engine's accounting invariants (implicit +
// computed = total pairs; edges split ≥ edges in) — the binary exits
// non-zero on a violation, which the nightly CI job relies on.
//
//   bench_engine [--sizes 1000,2000] [--serial-cap 2000] [--overlap 600]
//                [--repeat 1] [--soak-moves 0] [--out BENCH_engine.json]
//                [--trace-out trace.json] [--flight-record record.txt]
//                [--profile profile.folded] [--profile-hz 997]
//
// Sizes above --serial-cap skip the serial baseline (quadratic, validated
// per pair — minutes at 10k). --repeat N times each sweep row N times and
// records the best wall time (the serial baseline always runs once — it is
// quadratic and only a reference point): single engine measurements on a
// loaded host can swing ±50%, which would flake the perf-smoke gate that
// diffs ledgers.
//
// --soak-moves N (default 0: off) adds one engine_delta_soak row per map
// size: N moves (rounded up to even) on the engine the engine_delta rows
// used, alternately displacing a random region (the engine_delta move) and
// putting it back. It reports the
// median move of the first and last tenth (soak_start_ms, soak_end_ms),
// the store's bytes over a fresh sweep of the final geometry
// (soak_bytes_ratio) and the store rebuilds the engine made
// (soak_rebuilds). The final digest must equal the fresh sweep's, or the
// binary exits non-zero. tools/perf_smoke.py gates the ratio and the
// end/start drift.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/compute_cdr.h"
#include "engine/delta_engine.h"
#include "engine/relation_store.h"
#include "engine/thread_pool.h"
#include "geometry/region.h"
#include "obs/profile.h"
#include "obs/recorder.h"
#include "obs/trace.h"
#include "util/random.h"
#include "util/string_util.h"
#include "workload/region_gen.h"

namespace cardir {
namespace {

double MsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

// The disjoint-cell "country map" layout of workload/scenario_gen: mostly
// tile-separated pairs, the engine's sweet spot.
std::vector<Region> MapRegions(Rng* rng, int count) {
  const int grid = static_cast<int>(std::ceil(std::sqrt(count)));
  const double cell = 1000.0 / grid;
  std::vector<Region> regions;
  regions.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    const int cx = i % grid;
    const int cy = i / grid;
    RegionGenOptions options;
    options.num_polygons = 1;
    options.vertices_per_polygon = 8;
    options.bounds = Box(cx * cell + 0.05 * cell, cy * cell + 0.05 * cell,
                         (cx + 1) * cell - 0.05 * cell,
                         (cy + 1) * cell - 0.05 * cell);
    regions.push_back(RandomRegion(rng, options));
  }
  return regions;
}

// Heavily overlapping regions: most pairs cross mbb lines, so the full
// Compute-CDR dominates and the pool, not the prefilter, carries the run.
std::vector<Region> OverlapRegions(Rng* rng, int count) {
  std::vector<Region> regions;
  regions.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    const double size = rng->NextDouble(40.0, 160.0);
    const double x = rng->NextDouble(0.0, 400.0 - size);
    const double y = rng->NextDouble(0.0, 400.0 - size);
    RegionGenOptions options;
    options.num_polygons = 1;
    options.vertices_per_polygon = 10;
    options.bounds = Box(x, y, x + size, y + size);
    regions.push_back(RandomRegion(rng, options));
  }
  return regions;
}

// The move generator: the same region shape, shifted. Keeps the workload's
// geometry scale so the delta rows measure maintenance cost, not a change
// of region statistics.
Region Translated(const Region& region, double dx, double dy) {
  Region out;
  for (const Polygon& polygon : region.polygons()) {
    std::vector<Point> vertices;
    vertices.reserve(polygon.size());
    for (const Point& p : polygon.vertices()) {
      vertices.emplace_back(p.x + dx, p.y + dy);
    }
    out.AddPolygon(Polygon(std::move(vertices)));
  }
  return out;
}

struct RunRecord {
  std::string workload;
  int regions = 0;
  std::string mode;
  int threads = 1;
  bool prefilter = false;
  double ms = 0;
  // 99th-percentile single-mutation latency — only the engine_delta* rows
  // measure a latency distribution; 0 elsewhere and emitted as JSON null.
  double p99_ms = 0;
  size_t pairs = 0;
  size_t prefiltered_pairs = 0;
  size_t crossing_pairs = 0;
  // Serial-loop wall time over this run's; 0 means "no serial baseline ran
  // for this (workload, n)" and is emitted as JSON null, never as 0.00 —
  // a literal zero would read as "infinitely slower than serial" to ledger
  // consumers (see the schema note in bench_common.h).
  double speedup_vs_serial = 0;
  // Observability counters over this run's window (zero when the binary was
  // built with -DCARDIR_OBS=OFF).
  double pairs_per_sec = 0;
  double prefilter_hit_rate = 0;
  uint64_t chunks_executed = 0;
  uint64_t chunks_stolen = 0;
  uint64_t edges_input = 0;
  uint64_t edges_split = 0;
  // Pairs the delta engine touched over this row's window, split by how
  // they resolved (explicit re-resolution vs implicit-from-profile). Zero
  // for the batch modes.
  uint64_t delta_pairs_reresolved = 0;
  uint64_t delta_pairs_implicit = 0;
  // engine_delta_soak rows only (see the file comment); soak_bytes_ratio 0
  // marks every other row, whose soak columns are emitted as JSON null.
  double soak_start_ms = 0;
  double soak_end_ms = 0;
  double soak_bytes_ratio = 0;
  uint64_t soak_rebuilds = 0;
  // Memory telemetry (obs/memstats.h): per-arena high-water bytes within
  // this run's window (ObsWindow resets peaks at window start) plus the
  // process RSS sampled at window close. All zero under -DCARDIR_OBS=OFF.
  int64_t mem_edge_soa_peak_bytes = 0;
  int64_t mem_sweep_scratch_peak_bytes = 0;
  int64_t mem_relation_store_peak_bytes = 0;
  int64_t mem_total_peak_bytes = 0;
  int64_t mem_process_rss_bytes = 0;
  // The serial loop allocates its matrix outside the instrumented arenas,
  // so its mem.* window is mostly silence plus whatever the allocator left
  // behind — not a measurement. Such rows emit every mem_* column as JSON
  // null (see the schema note in bench_common.h).
  bool mem_valid = true;
};

// Fails the process on a counter-accounting violation; the nightly CI job
// surfaces this as a red run.
void CheckCounterInvariants(const RunRecord& r,
                            const obs::MetricsSnapshot& delta) {
  const uint64_t total = delta.counter("engine.pairs.total");
  const uint64_t prefiltered = delta.counter("engine.pairs.prefiltered");
  const uint64_t computed = delta.counter("engine.pairs.computed");
  if (prefiltered + computed != total) {
    std::cerr << "counter invariant violated (" << r.workload << " n="
              << r.regions << " " << r.mode
              << "): prefiltered + computed != total (" << prefiltered
              << " + " << computed << " != " << total << ")\n";
    std::exit(1);
  }
  // A batch row's window holds one sweep over all n·(n-1) pairs. Delta
  // rows may hold store rebuilds too, each at the region count the script
  // had reached, so only the split invariant above applies to them.
  const bool delta_row = r.mode.rfind("engine_delta", 0) == 0;
  if (!delta_row && delta.counter("engine.runs") != 0 &&
      total != static_cast<uint64_t>(r.pairs)) {
    std::cerr << "counter invariant violated (" << r.workload << " n="
              << r.regions << " " << r.mode << "): engine.pairs.total "
              << total << " != n*(n-1) = " << r.pairs << "\n";
    std::exit(1);
  }
  if (delta.counter("core.edges.split") < delta.counter("core.edges.input")) {
    std::cerr << "counter invariant violated (" << r.workload << " n="
              << r.regions << " " << r.mode
              << "): edges split < edges in ("
              << delta.counter("core.edges.split") << " < "
              << delta.counter("core.edges.input") << ")\n";
    std::exit(1);
  }
}

// The loop Configuration::ComputeAllRelations ran before the engine:
// validated Compute-CDR per ordered pair, results materialised in order.
// Validation stays per pair, as in that loop; only the counter flush is
// batched, so the timed region carries the same instrumentation overhead
// as the engine's strip-chunked path.
double TimeSerialLoop(const std::vector<Region>& regions) {
  const auto start = std::chrono::steady_clock::now();
  std::vector<CardinalRelation> matrix;
  matrix.reserve(regions.size() * (regions.size() - 1));
  CdrMetricsDelta cdr_metrics;
  for (size_t i = 0; i < regions.size(); ++i) {
    for (size_t j = 0; j < regions.size(); ++j) {
      if (i == j) continue;
      const Status primary_ok = regions[i].Validate();
      const Status reference_ok = regions[j].Validate();
      if (!primary_ok.ok() || !reference_ok.ok()) {
        std::cerr << "serial loop failed: "
                  << (primary_ok.ok() ? reference_ok : primary_ok).ToString()
                  << "\n";
        std::exit(1);
      }
      matrix.push_back(
          ComputeCdrUnchecked(regions[i], regions[j], &cdr_metrics).relation);
    }
  }
  cdr_metrics.FlushToRegistry();
  return MsSince(start);
}

// The sweep join (engine/relation_store.h): candidate pairs come from the
// interval-overlap indexes, everything else resolves implicitly from the
// run-length class profile, and the result is the O(n + explicit) store
// rather than a dense matrix. The timed region is construction only —
// enumerating all n·(n-1) pairs afterwards (Digest) would put the
// quadratic walk the sweep exists to avoid back into the measurement.
// `overlay_out` receives the explicit-pair count so the caller can report
// how much of the quadratic pair space ever materialised.
double TimeSweep(const std::vector<Region>& regions,
                 const EngineOptions& options, EngineStats* stats,
                 size_t* overlay_out) {
  const auto start = std::chrono::steady_clock::now();
  auto store = ComputeRelationStore(regions, options, stats);
  if (!store.ok()) {
    std::cerr << "sweep engine failed: " << store.status() << "\n";
    std::exit(1);
  }
  const double ms = MsSince(start);
  *overlay_out = store->overlay_pairs();
  return ms;
}

std::vector<int> ParseIntList(const std::string& text) {
  std::vector<int> values;
  for (const std::string& piece : StrSplit(text, ',')) {
    values.push_back(std::stoi(piece));
  }
  return values;
}

// Fills the counter-derived fields from this run's metric window and
// enforces the accounting invariants.
void RecordCounters(RunRecord* r, const bench::ObsWindow& window) {
  const obs::MetricsSnapshot delta = window.Delta();
  r->pairs_per_sec =
      r->ms > 0 ? static_cast<double>(r->pairs) / (r->ms / 1000.0) : 0.0;
  const uint64_t total = delta.counter("engine.pairs.total");
  r->prefilter_hit_rate =
      total > 0 ? static_cast<double>(delta.counter("engine.pairs.prefiltered")) /
                      static_cast<double>(total)
                : 0.0;
  r->chunks_executed = delta.counter("engine.pool.chunks_executed");
  r->chunks_stolen = delta.counter("engine.pool.chunks_stolen");
  r->edges_input = delta.counter("core.edges.input");
  r->edges_split = delta.counter("core.edges.split");
  r->delta_pairs_reresolved = delta.counter("delta.pairs_reresolved");
  r->delta_pairs_implicit = delta.counter("delta.pairs_implicit");
  r->mem_edge_soa_peak_bytes = delta.gauge("mem.edge_soa.peak_bytes");
  r->mem_sweep_scratch_peak_bytes =
      delta.gauge("mem.sweep_scratch.peak_bytes");
  r->mem_relation_store_peak_bytes =
      delta.gauge("mem.relation_store.peak_bytes");
  r->mem_total_peak_bytes = delta.gauge("mem.total.peak_bytes");
  r->mem_process_rss_bytes = delta.gauge("mem.process.rss_bytes");
  CheckCounterInvariants(*r, delta);
}

void PrintRecord(const RunRecord& r) {
  if (r.p99_ms > 0) {
    // Delta rows: per-mutation latency, not a batch throughput number.
    std::printf(
        "%-8s n=%-6d %-18s threads=%-2d %10.4f ms median  p99=%.4f ms"
        "  reresolved=%llu implicit=%llu",
        r.workload.c_str(), r.regions, r.mode.c_str(), r.threads, r.ms,
        r.p99_ms, static_cast<unsigned long long>(r.delta_pairs_reresolved),
        static_cast<unsigned long long>(r.delta_pairs_implicit));
    if (r.soak_bytes_ratio > 0) {
      std::printf("  start=%.4f ms end=%.4f ms bytes_ratio=%.3f rebuilds=%llu",
                  r.soak_start_ms, r.soak_end_ms, r.soak_bytes_ratio,
                  static_cast<unsigned long long>(r.soak_rebuilds));
    }
    std::printf("\n");
    return;
  }
  const double mpairs_s =
      r.ms > 0 ? static_cast<double>(r.pairs) / r.ms / 1000.0 : 0.0;
  std::printf(
      "%-8s n=%-6d %-18s threads=%-2d %10.1f ms  %8.2f Mpairs/s"
      "  prefiltered=%zu crossing=%zu stolen=%llu%s\n",
      r.workload.c_str(), r.regions, r.mode.c_str(), r.threads, r.ms,
      mpairs_s, r.prefiltered_pairs, r.crossing_pairs,
      static_cast<unsigned long long>(r.chunks_stolen),
      r.speedup_vs_serial > 0
          ? StrFormat("  speedup=%.1fx", r.speedup_vs_serial).c_str()
          : "");
}

void WriteJson(const std::vector<RunRecord>& records, int repeat,
               const std::string& path) {
  std::ostringstream out;
  out << "{\n  \"bench\": \"engine\",\n  \"unit\": \"ms\",\n  \"repeat\": "
      << repeat << ",\n  \"runs\": [\n";
  for (size_t i = 0; i < records.size(); ++i) {
    const RunRecord& r = records[i];
    // Sizes above --serial-cap have no serial baseline: emit null, not
    // 0.00, so ledger consumers can tell "not measured" from a ratio.
    const std::string speedup =
        r.speedup_vs_serial > 0 ? StrFormat("%.2f", r.speedup_vs_serial)
                                : std::string("null");
    // Rows that ran outside the instrumented arenas (the serial loop) have
    // no memory measurement: every mem_* column is null, never 0 (see the
    // schema note in bench_common.h).
    auto mem = [&](int64_t value) -> std::string {
      return r.mem_valid ? StrFormat("%lld", static_cast<long long>(value))
                         : std::string("null");
    };
    // Only the delta rows carry a latency distribution; everything else
    // emits p99_ms as null so consumers cannot mistake "not a latency
    // bench" for "zero-latency".
    const std::string p99 =
        r.p99_ms > 0 ? StrFormat("%.4f", r.p99_ms) : std::string("null");
    auto soak_ms = [&r](double value) {
      return r.soak_bytes_ratio > 0 ? StrFormat("%.4f", value)
                                    : std::string("null");
    };
    const std::string soak_rebuilds =
        r.soak_bytes_ratio > 0
            ? StrFormat("%llu",
                        static_cast<unsigned long long>(r.soak_rebuilds))
            : std::string("null");
    out << StrFormat(
        "    {\"workload\": \"%s\", \"regions\": %d, \"mode\": \"%s\", "
        "\"threads\": %d, \"prefilter\": %s, \"ms\": %.4f, "
        "\"p99_ms\": %s, \"pairs\": %zu, "
        "\"prefiltered_pairs\": %zu, \"crossing_pairs\": %zu, "
        "\"speedup_vs_serial\": %s, \"pairs_per_sec\": %.0f, "
        "\"prefilter_hit_rate\": %.4f, \"chunks_executed\": %llu, "
        "\"chunks_stolen\": %llu, \"edges_input\": %llu, "
        "\"edges_split\": %llu, \"delta_pairs_reresolved\": %llu, "
        "\"delta_pairs_implicit\": %llu, "
        "\"soak_start_ms\": %s, \"soak_end_ms\": %s, "
        "\"soak_bytes_ratio\": %s, \"soak_rebuilds\": %s, "
        "\"mem_edge_soa_peak_bytes\": %s, "
        "\"mem_sweep_scratch_peak_bytes\": %s, "
        "\"mem_relation_store_peak_bytes\": %s, "
        "\"mem_total_peak_bytes\": %s, "
        "\"mem_process_rss_bytes\": %s}%s\n",
        r.workload.c_str(), r.regions, r.mode.c_str(), r.threads,
        r.prefilter ? "true" : "false", r.ms, p99.c_str(), r.pairs,
        r.prefiltered_pairs,
        r.crossing_pairs, speedup.c_str(), r.pairs_per_sec,
        r.prefilter_hit_rate,
        static_cast<unsigned long long>(r.chunks_executed),
        static_cast<unsigned long long>(r.chunks_stolen),
        static_cast<unsigned long long>(r.edges_input),
        static_cast<unsigned long long>(r.edges_split),
        static_cast<unsigned long long>(r.delta_pairs_reresolved),
        static_cast<unsigned long long>(r.delta_pairs_implicit),
        soak_ms(r.soak_start_ms).c_str(), soak_ms(r.soak_end_ms).c_str(),
        soak_ms(r.soak_bytes_ratio).c_str(), soak_rebuilds.c_str(),
        mem(r.mem_edge_soa_peak_bytes).c_str(),
        mem(r.mem_sweep_scratch_peak_bytes).c_str(),
        mem(r.mem_relation_store_peak_bytes).c_str(),
        mem(r.mem_total_peak_bytes).c_str(),
        mem(r.mem_process_rss_bytes).c_str(),
        i + 1 < records.size() ? "," : "");
  }
  out << "  ]\n}\n";
  std::ofstream file(path);
  file << out.str();
  std::cout << "wrote " << path << "\n";
}

int Main(int argc, char** argv) {
  std::vector<int> sizes = {1000, 2000};
  int serial_cap = 2000;
  int overlap_size = 600;
  int repeat = 1;
  int soak_moves = 0;
  std::string out_path = "BENCH_engine.json";
  std::string trace_path;
  std::string flight_record_path;
  std::string profile_path;
  double profile_hz = obs::ProfileOptions().hz;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::cerr << arg << " needs a value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--sizes") {
      sizes = ParseIntList(next());
    } else if (arg == "--serial-cap") {
      serial_cap = std::stoi(next());
    } else if (arg == "--overlap") {
      overlap_size = std::stoi(next());
    } else if (arg == "--repeat") {
      repeat = std::max(1, std::stoi(next()));
    } else if (arg == "--soak-moves") {
      soak_moves = std::max(0, std::stoi(next()));
    } else if (arg == "--out") {
      out_path = next();
    } else if (arg == "--trace-out") {
      trace_path = next();
    } else if (arg == "--flight-record") {
      flight_record_path = next();
    } else if (arg == "--profile") {
      profile_path = next();
    } else if (arg == "--profile-hz") {
      profile_hz = std::stod(next());
    } else {
      std::cerr << "unknown argument: " << arg << "\n";
      return 2;
    }
  }

  std::vector<RunRecord> records;
  if (!flight_record_path.empty()) {
    obs::InstallCrashDump(flight_record_path.c_str());
    obs::CaptureLogTail();
  }
  if (!profile_path.empty()) {
    obs::ProfileOptions profile_options;
    profile_options.hz = profile_hz;
    const Status started = obs::StartProfiling(profile_options);
    if (!started.ok()) {
      std::cerr << "--profile: " << started << "\n";
      return 1;
    }
  }
  if (!trace_path.empty()) obs::StartTracing();

  auto run_workload = [&](const std::string& name,
                          const std::vector<Region>& regions) {
    const int n = static_cast<int>(regions.size());
    const size_t pairs = static_cast<size_t>(n) * (n - 1);
    double serial_ms = 0;

    if (n <= serial_cap) {
      RunRecord serial;
      serial.workload = name;
      serial.regions = n;
      serial.mode = "serial_loop";
      serial.threads = 1;
      serial.pairs = pairs;
      const bench::ObsWindow window;
      serial.ms = TimeSerialLoop(regions);
      RecordCounters(&serial, window);
      // The serial loop's relation matrix is a plain std::vector outside
      // the instrumented arenas — its mem columns are not a measurement.
      serial.mem_valid = false;
      serial_ms = serial.ms;
      records.push_back(serial);
      PrintRecord(serial);
    }

    // Sweep join: never enumerates the quadratic pair space, so it runs at
    // every size. One serial row and one at full hardware concurrency
    // (strip-parallel). Best-of-`repeat` timing; counters are recorded over
    // the last repetition only (each repetition is deterministic, so the
    // windows are identical — summing them would break the accounting
    // invariants).
    for (const int threads : {1, 0}) {
      EngineOptions options;
      options.threads = threads;
      RunRecord r;
      r.workload = name;
      r.regions = n;
      r.mode = threads == 1 ? "engine_sweep" : "engine_sweep_parallel";
      r.threads = threads == 0 ? ThreadPool::ResolveThreadCount(0) : threads;
      r.prefilter = true;  // Implicit class resolution is the prefilter.
      r.pairs = pairs;
      EngineStats stats;
      size_t overlay = 0;
      double best = 0;
      for (int rep = 0; rep < repeat; ++rep) {
        const bench::ObsWindow window;
        const double ms = TimeSweep(regions, options, &stats, &overlay);
        if (rep == 0 || ms < best) best = ms;
        if (rep + 1 == repeat) {
          r.ms = best;
          RecordCounters(&r, window);
        }
      }
      r.prefiltered_pairs = stats.prefiltered_pairs;
      r.crossing_pairs = stats.crossing_pairs;
      if (serial_ms > 0) r.speedup_vs_serial = serial_ms / r.ms;
      records.push_back(r);
      PrintRecord(r);
    }

    // Delta maintenance (engine/delta_engine.h): single-mutation latency
    // against a store adopted from one sweep build. Each row times
    // `kDeltaMutations` mutations of one kind and reports the median (ms)
    // and 99th percentile (p99_ms) of the distribution — best-of-N is the
    // wrong statistic for latency, so --repeat does not apply here. The
    // engine is built OUTSIDE the obs windows: each window then sees only
    // the mutations, engine.runs stays 0, and the counter invariants apply
    // to the delta path alone. The headline comparison is this row's
    // median vs the same (workload, n) engine_sweep row: the cost of one
    // move vs recomputing the configuration from scratch.
    {
      constexpr int kDeltaMutations = 200;
      auto built = DeltaEngine::Build(regions);
      if (!built.ok()) {
        std::cerr << "delta engine build failed: " << built.status() << "\n";
        std::exit(1);
      }
      DeltaEngine engine = std::move(built.value());
      Rng delta_rng(0xDE0000u + static_cast<uint64_t>(n));

      // `r` carries any row-specific columns (the soak's) in.
      auto push_delta_row = [&](const std::string& mode,
                                std::vector<double> lat, double total_ms,
                                const bench::ObsWindow& window,
                                RunRecord r = RunRecord()) {
        std::sort(lat.begin(), lat.end());
        r.workload = name;
        r.regions = n;
        r.mode = mode;
        r.threads = 1;
        r.prefilter = true;  // The interval indexes bound the dirty set.
        r.pairs = pairs;
        r.ms = lat[lat.size() / 2];
        r.p99_ms = lat[(lat.size() * 99) / 100];
        RecordCounters(&r, window);
        // Throughput over the whole mutation script, in maintained pairs —
        // the generic pairs/ms formula would divide the quadratic pair
        // count by one median mutation.
        r.pairs_per_sec =
            total_ms > 0
                ? static_cast<double>(r.delta_pairs_reresolved +
                                      r.delta_pairs_implicit) /
                      (total_ms / 1000.0)
                : 0.0;
        records.push_back(r);
        PrintRecord(r);
      };

      {
        // Move: shift one region to a nearby spot, geometry built outside
        // the timed section.
        const bench::ObsWindow window;
        std::vector<double> lat;
        double total_ms = 0;
        for (int m = 0; m < kDeltaMutations; ++m) {
          const size_t id = delta_rng.NextBelow(engine.regions());
          Region moved = Translated(engine.region(id),
                                    delta_rng.NextDouble(-40.0, 40.0),
                                    delta_rng.NextDouble(-40.0, 40.0));
          const auto start = std::chrono::steady_clock::now();
          const auto applied = engine.Move(id, std::move(moved));
          const double ms = MsSince(start);
          if (!applied.ok()) {
            std::cerr << "delta move failed: " << applied.status() << "\n";
            std::exit(1);
          }
          lat.push_back(ms);
          total_ms += ms;
        }
        push_delta_row("engine_delta", std::move(lat), total_ms, window);
      }

      {
        // Insert: a fresh region cloned from a random existing one,
        // shifted — same shape statistics as the workload.
        const bench::ObsWindow window;
        std::vector<double> lat;
        double total_ms = 0;
        for (int m = 0; m < kDeltaMutations; ++m) {
          const size_t id = delta_rng.NextBelow(engine.regions());
          Region fresh = Translated(engine.region(id),
                                    delta_rng.NextDouble(-60.0, 60.0),
                                    delta_rng.NextDouble(-60.0, 60.0));
          const auto start = std::chrono::steady_clock::now();
          const auto applied = engine.Insert(std::move(fresh));
          const double ms = MsSince(start);
          if (!applied.ok()) {
            std::cerr << "delta insert failed: " << applied.status() << "\n";
            std::exit(1);
          }
          lat.push_back(ms);
          total_ms += ms;
        }
        push_delta_row("engine_delta_insert", std::move(lat), total_ms,
                       window);
      }

      {
        // Remove: drains what the insert pass added, so the engine ends
        // the bench at its original size.
        const bench::ObsWindow window;
        std::vector<double> lat;
        double total_ms = 0;
        for (int m = 0; m < kDeltaMutations; ++m) {
          const size_t id = delta_rng.NextBelow(engine.regions());
          const auto start = std::chrono::steady_clock::now();
          const auto applied = engine.Remove(id);
          const double ms = MsSince(start);
          if (!applied.ok()) {
            std::cerr << "delta remove failed: " << applied.status() << "\n";
            std::exit(1);
          }
          lat.push_back(ms);
          total_ms += ms;
        }
        push_delta_row("engine_delta_remove", std::move(lat), total_ms,
                       window);
      }

      if (soak_moves > 0 && name == "map") {
        // Soak (see the file comment): many moves on the same engine, in
        // displace/return pairs, so the store's patch layer must stay
        // bounded by its rebuilds and the move latency must not drift. A
        // random walk would drift instead: regions pile onto each other,
        // and at map/20k the full Compute-CDR runs per move, rebuilds
        // included, went from 3 to 48 in 8k moves. The geometry ends where
        // it starts, so the fresh reference store is swept before the
        // window opens and only its digest and bytes are kept.
        std::vector<Region> current;
        current.reserve(engine.regions());
        for (size_t i = 0; i < engine.regions(); ++i) {
          current.push_back(engine.region(i));
        }
        uint64_t fresh_digest = 0;
        size_t fresh_bytes = 0;
        {
          auto fresh = ComputeRelationStore(current);
          if (!fresh.ok()) {
            std::cerr << "soak fresh sweep failed: " << fresh.status()
                      << "\n";
            std::exit(1);
          }
          fresh_digest = fresh->Digest();
          fresh_bytes = fresh->bytes();
        }
        const bench::ObsWindow window;
        std::vector<double> lat;
        double total_ms = 0;
        for (int m = 0; m < soak_moves; m += 2) {
          const size_t id = delta_rng.NextBelow(engine.regions());
          Region displaced = Translated(current[id],
                                        delta_rng.NextDouble(-40.0, 40.0),
                                        delta_rng.NextDouble(-40.0, 40.0));
          for (Region* geometry : {&displaced, &current[id]}) {
            Region moved = *geometry;
            const auto start = std::chrono::steady_clock::now();
            const auto applied = engine.Move(id, std::move(moved));
            const double ms = MsSince(start);
            if (!applied.ok()) {
              std::cerr << "delta soak move failed: " << applied.status()
                        << "\n";
              std::exit(1);
            }
            lat.push_back(ms);
            total_ms += ms;
          }
        }
        if (engine.Digest() != fresh_digest) {
          std::cerr << "delta soak digest differs from a fresh sweep (n=" << n
                    << ")\n";
          std::exit(1);
        }
        RunRecord soak;
        const auto window_median = [&lat](size_t begin, size_t end) {
          std::vector<double> part(
              lat.begin() + static_cast<ptrdiff_t>(begin),
              lat.begin() + static_cast<ptrdiff_t>(end));
          std::sort(part.begin(), part.end());
          return part[part.size() / 2];
        };
        const size_t tenth = std::max<size_t>(1, lat.size() / 10);
        soak.soak_start_ms = window_median(0, tenth);
        soak.soak_end_ms = window_median(lat.size() - tenth, lat.size());
        soak.soak_bytes_ratio = static_cast<double>(engine.store().bytes()) /
                                static_cast<double>(fresh_bytes);
        soak.soak_rebuilds = window.Delta().counter("delta.rebuilds");
        push_delta_row("engine_delta_soak", std::move(lat), total_ms, window,
                       soak);
      }
    }

  };

  // Each workload seeds its own generator from its (name, size) alone, so
  // a ledger row's inputs do not depend on which other sizes ran in the
  // same invocation — a CI run of a subset of the committed size list
  // reproduces the committed rows' inputs exactly.
  for (int n : sizes) {
    Rng rng(7u + static_cast<uint64_t>(n));
    run_workload("map", MapRegions(&rng, n));
  }
  if (overlap_size > 0) {
    Rng rng(0xB0E0u + static_cast<uint64_t>(overlap_size));
    run_workload("overlap", OverlapRegions(&rng, overlap_size));
  }

  if (!trace_path.empty()) {
    obs::StopTracing();
    std::ofstream trace_file(trace_path);
    if (!trace_file) {
      std::cerr << "cannot open " << trace_path << " for writing\n";
      return 1;
    }
    obs::WriteChromeTrace(trace_file);
    std::cout << "wrote " << trace_path << "\n";
  }
  if (!profile_path.empty()) {
    obs::StopProfiling();
    const Status written = obs::WriteCollapsedProfile(profile_path);
    if (!written.ok()) {
      std::cerr << "--profile: " << written << "\n";
      return 1;
    }
    const obs::ProfileStats pstats = obs::GetProfileStats();
    std::cout << "wrote " << profile_path << " (" << pstats.samples_taken
              << " samples, " << pstats.samples_with_work << " with work)\n";
  }
  if (!flight_record_path.empty()) {
    if (!obs::DumpFlightRecordToPath(flight_record_path.c_str())) {
      std::cerr << "cannot write flight record to " << flight_record_path
                << "\n";
      return 1;
    }
    std::cout << "wrote " << flight_record_path << "\n";
  }
  WriteJson(records, repeat, out_path);
  return 0;
}

}  // namespace
}  // namespace cardir

int main(int argc, char** argv) { return cardir::Main(argc, argv); }
