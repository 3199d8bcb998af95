// Differential oracle for the sweep-join engine: on randomized REG*
// configurations, the RelationStore must be bit-identical to (a) the
// serial Compute-CDR loop and (b) the independent clipping-based baseline
// — pair for pair and by digest — at 1, 2 and 4 threads, with automatic
// and single-row strips.

#include <optional>
#include <vector>

#include "clipping/baseline_cdr.h"
#include "engine/relation_store.h"
#include "geometry/region.h"
#include "gtest/gtest.h"
#include "properties/random_instances.h"
#include "properties/reference_relations.h"
#include "util/random.h"

namespace cardir {
namespace {

std::vector<CardinalRelation> BaselineMatrix(
    const std::vector<Region>& regions) {
  std::vector<CardinalRelation> matrix;
  for (size_t i = 0; i < regions.size(); ++i) {
    for (size_t j = 0; j < regions.size(); ++j) {
      if (i == j) continue;
      auto relation = BaselineCdr(regions[i], regions[j]);
      EXPECT_TRUE(relation.ok()) << relation.status();
      matrix.push_back(*relation);
    }
  }
  return matrix;
}

class EngineOracleTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EngineOracleTest, StoreMatchesSerialLoopAndClippingBaseline) {
  Rng rng(GetParam());
  const size_t num_regions = 12 + rng.NextBelow(14);
  std::vector<Region> regions;
  regions.reserve(num_regions);
  for (size_t i = 0; i < num_regions; ++i) {
    regions.push_back(RandomTestRegion(&rng));
  }

  const std::vector<CardinalRelation> serial = ReferenceRelations(regions);
  const std::vector<CardinalRelation> baseline = BaselineMatrix(regions);
  ASSERT_EQ(serial.size(), num_regions * (num_regions - 1));
  ASSERT_EQ(serial, baseline)
      << "the two serial oracles disagree; the fixture itself is broken";

  for (const EngineOptions& options : OracleEngineOptions()) {
    SCOPED_TRACE(testing::Message() << options.threads << " threads, chunk "
                                    << options.chunk_size);
    EngineStats stats;
    auto store = ComputeRelationStore(regions, options, &stats);
    ASSERT_TRUE(store.ok()) << store.status();
    EXPECT_EQ(stats.total_pairs, serial.size());
    EXPECT_EQ(stats.prefiltered_pairs + stats.computed_pairs,
              stats.total_pairs);
    EXPECT_EQ(stats.computed_pairs, store->overlay_pairs());
    ExpectStoreMatchesReference(*store, serial);
  }
}

TEST_P(EngineOracleTest, DigestIsThreadCountInvariant) {
  Rng rng(GetParam() ^ 0x9e3779b97f4a7c15ULL);
  std::vector<Region> regions;
  for (size_t i = 0; i < 16; ++i) regions.push_back(RandomTestRegion(&rng));

  const uint64_t expected = ReferenceDigest(regions);
  for (const EngineOptions& options : OracleEngineOptions()) {
    auto store = ComputeRelationStore(regions, options);
    ASSERT_TRUE(store.ok()) << store.status();
    EXPECT_EQ(store->Digest(), expected)
        << options.threads << " threads, chunk " << options.chunk_size;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineOracleTest,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u,
                                           34u));

TEST(EngineEdgeCaseTest, PrefilterStatsOnSeparatedGrid) {
  // A 4×4 grid of well-separated rectangles: every pair is tile-separated,
  // so the sweep should find no explicit pairs and resolve everything from
  // the boxes without a single Compute-CDR call.
  std::vector<Region> regions;
  for (int y = 0; y < 4; ++y) {
    for (int x = 0; x < 4; ++x) {
      regions.push_back(Region(
          MakeRectangle(x * 100.0, y * 100.0, x * 100.0 + 40, y * 100.0 + 40)));
    }
  }
  EngineStats stats;
  auto store = ComputeRelationStore(regions, EngineOptions(), &stats);
  ASSERT_TRUE(store.ok()) << store.status();
  EXPECT_EQ(stats.total_pairs, 16u * 15u);
  EXPECT_EQ(stats.prefiltered_pairs, stats.total_pairs);
  EXPECT_EQ(stats.computed_pairs, 0u);
  EXPECT_EQ(stats.crossing_pairs, 0u);
  EXPECT_EQ(store->overlay_pairs(), 0u);
  ExpectStoreMatchesReference(*store, ReferenceRelations(regions));
}

}  // namespace
}  // namespace cardir
