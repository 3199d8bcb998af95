// Experiment E10 (DESIGN.md): throughput of the DTD-shaped XML persistence
// layer (serialise and parse) as configurations grow: geometry-only
// documents of 4-256 regions, and the relation-dominated document of a
// 500-region map after ComputeAllRelations (249,500 <Relation> elements,
// the shape the full-DTD save and reopen write and read).

#include <benchmark/benchmark.h>

#include <cstdlib>

#include "cardirect/xml.h"
#include "util/random.h"
#include "workload/scenario_gen.h"

namespace cardir {
namespace {

Configuration MakeConfig(int num_regions) {
  Rng rng(55);
  ScenarioOptions options;
  options.num_regions = num_regions;
  options.polygons_per_region = 2;
  options.vertices_per_polygon = 16;
  return *GenerateMapConfiguration(&rng, options);
}

void BM_SerializeConfiguration(benchmark::State& state) {
  const Configuration config = MakeConfig(static_cast<int>(state.range(0)));
  size_t bytes = 0;
  for (auto _ : state) {
    const std::string xml = ConfigurationToXml(config);
    bytes = xml.size();
    benchmark::DoNotOptimize(xml);
  }
  state.SetBytesProcessed(state.iterations() * static_cast<int64_t>(bytes));
  state.counters["regions"] = static_cast<double>(config.regions().size());
}
BENCHMARK(BM_SerializeConfiguration)->RangeMultiplier(4)->Range(4, 256);

void BM_ParseConfiguration(benchmark::State& state) {
  const std::string xml =
      ConfigurationToXml(MakeConfig(static_cast<int>(state.range(0))));
  for (auto _ : state) {
    auto config = ConfigurationFromXml(xml);
    benchmark::DoNotOptimize(config);
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(xml.size()));
}
BENCHMARK(BM_ParseConfiguration)->RangeMultiplier(4)->Range(4, 256);

void BM_ParseRawXml(benchmark::State& state) {
  const std::string xml =
      ConfigurationToXml(MakeConfig(static_cast<int>(state.range(0))));
  for (auto _ : state) {
    auto node = ParseXml(xml);
    benchmark::DoNotOptimize(node);
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(xml.size()));
}
BENCHMARK(BM_ParseRawXml)->RangeMultiplier(4)->Range(4, 256);

// The 500-region map with all n(n-1) relations computed: the document is
// ~95% <Relation> elements by bytes.
const Configuration& ComputedMap() {
  static const Configuration* const config = [] {
    auto* computed = new Configuration(MakeConfig(500));
    if (!computed->ComputeAllRelations().ok()) std::abort();
    return computed;
  }();
  return *config;
}

void BM_SerializeComputedMap(benchmark::State& state) {
  const Configuration& config = ComputedMap();
  size_t bytes = 0;
  for (auto _ : state) {
    const std::string xml = ConfigurationToXml(config);
    bytes = xml.size();
    benchmark::DoNotOptimize(xml);
  }
  state.SetBytesProcessed(state.iterations() * static_cast<int64_t>(bytes));
  state.counters["relations"] = static_cast<double>(config.relation_count());
}
BENCHMARK(BM_SerializeComputedMap)->Unit(benchmark::kMillisecond);

void BM_ParseComputedMap(benchmark::State& state) {
  const std::string xml = ConfigurationToXml(ComputedMap());
  for (auto _ : state) {
    auto config = ConfigurationFromXml(xml);
    benchmark::DoNotOptimize(config);
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(xml.size()));
  state.counters["relations"] =
      static_cast<double>(ComputedMap().relation_count());
}
BENCHMARK(BM_ParseComputedMap)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace cardir
