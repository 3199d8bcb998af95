// RelationStore / sweep-join tests: the store must round-trip exactly to
// the serial Compute-CDR loop — every pair, every instance class, every
// thread count and strip size — and its footprint accounting must hold
// even on instances built to defeat the implicit-run compression.

#include <algorithm>
#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "engine/interval_kernel.h"
#include "engine/relation_store.h"
#include "geometry/region.h"
#include "gtest/gtest.h"
#include "obs/memstats.h"
#include "properties/random_instances.h"
#include "properties/reference_relations.h"
#include "util/random.h"
#include "workload/region_gen.h"

namespace cardir {
namespace {

// Map-like instance: one region per jittered grid cell (the bench's map
// workload in miniature) — almost every pair resolves implicitly.
std::vector<Region> SmallMapRegions(Rng* rng, int count) {
  const int grid = 1 + static_cast<int>(std::sqrt(static_cast<double>(count)));
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

// Overlap-heavy instance: random boxes on a shared canvas, so a large
// share of pairs cross reference lines and land in the overlay.
std::vector<Region> SmallOverlapRegions(Rng* rng, int count) {
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

// Asserts that `store` agrees with the serial Compute-CDR loop pair for
// pair via all three read paths (ForEach cursor iteration and digest, spot
// Relation lookups), and that the accounting between implicit and overlay
// pairs is consistent.
void ExpectMatchesReference(const RelationStore& store,
                            const std::vector<CardinalRelation>& reference,
                            size_t n) {
  ASSERT_EQ(store.regions(), n);
  ExpectStoreMatchesReference(store, reference);

  size_t explicit_seen = 0;
  store.ForEach([&](size_t i, size_t j, const CardinalRelation&) {
    if (store.IsExplicit(i, j)) ++explicit_seen;
  });
  EXPECT_EQ(explicit_seen, store.overlay_pairs());

  // Random-access lookups against a handful of rows (Lookup is O(n) per
  // overlay pair, so exhaustive lookup would square the test).
  for (size_t i = 0; i < n; i += 1 + n / 7) {
    for (size_t j = 0; j < n; ++j) {
      if (i == j) continue;
      const size_t k = i * (n - 1) + (j < i ? j : j - 1);
      ASSERT_EQ(store.Relation(i, j).mask(), reference[k].mask())
          << "lookup (" << i << ", " << j << ")";
    }
  }
}

TEST(RelationStoreProperty, RoundTripsToSerialLoopOn1000RandomInstances) {
  const std::vector<EngineOptions> grid = OracleEngineOptions();
  for (uint64_t seed = 0; seed < 1000; ++seed) {
    Rng rng(0x5EED0000u + seed);
    const int n = 3 + static_cast<int>(rng.NextBelow(18));
    std::vector<Region> regions;
    switch (seed % 3) {
      case 0:
        regions = SmallMapRegions(&rng, n);
        break;
      case 1:
        regions = SmallOverlapRegions(&rng, n);
        break;
      default:
        for (int i = 0; i < n; ++i) {
          regions.push_back(RandomTestRegion(&rng));
        }
        break;
    }

    // Every thread count and strip size of the oracle grid, in turn.
    const EngineOptions& options = grid[(seed / 3) % grid.size()];
    EngineStats stats;
    auto store = ComputeRelationStore(regions, options, &stats);
    ASSERT_TRUE(store.ok()) << store.status() << " (seed " << seed << ")";

    ExpectMatchesReference(*store, ReferenceRelations(regions),
                           regions.size());
    EXPECT_EQ(stats.total_pairs, store->pair_count());
    EXPECT_EQ(stats.computed_pairs, store->overlay_pairs());
    EXPECT_EQ(stats.prefiltered_pairs + stats.computed_pairs,
              stats.total_pairs);
  }
}

// Alternating tall/wide slats through a common centre: every (tall, wide)
// pair crosses on both axes, so ~half of all pairs land in the overlay —
// the worst case for the implicit-run compression. The store must stay
// correct and its footprint must still be exactly the accounted bound
// (overlay + profile + offsets), i.e. bounded by a dense 2-byte matrix
// plus the per-region overhead even with compression fully defeated.
TEST(RelationStoreProperty, AdversarialAlternatingClassInstance) {
  std::vector<Region> regions;
  const int n = 64;
  for (int i = 0; i < n; ++i) {
    const double offset = 10.0 * i;
    if (i % 2 == 0) {
      // Tall, thin, x-offset.
      regions.push_back(
          Region(MakeRectangle(100.0 + offset, 0.0, 140.0 + offset, 1000.0)));
    } else {
      // Wide, flat, y-offset.
      regions.push_back(
          Region(MakeRectangle(0.0, 100.0 + offset, 1000.0, 140.0 + offset)));
    }
  }

  auto store = ComputeRelationStore(regions);
  ASSERT_TRUE(store.ok()) << store.status();

  // Compression is actually defeated: a large share of pairs is explicit.
  EXPECT_GE(store->overlay_pairs(), store->pair_count() / 4);

  ExpectMatchesReference(*store, ReferenceRelations(regions), regions.size());

  // Memory gate: footprint is exactly the accounted structures — 2 bytes
  // per overlay pair, the SoA profile, and one offset per row — so even
  // with every pair explicit the store cannot exceed dense-matrix size
  // plus the fixed per-region overhead.
  const size_t accounted =
      store->overlay_pairs() * sizeof(uint16_t) +
      store->regions() * (4 * sizeof(double) + sizeof(uint8_t)) +
      (store->regions() + 1) * sizeof(uint64_t);
  EXPECT_LE(store->bytes(), 2 * accounted)
      << "capacity overhead exceeded the accounted footprint";
  EXPECT_LE(store->overlay_pairs() * sizeof(uint16_t),
            store->pair_count() * sizeof(uint16_t));
}

// On map workloads the store must be a small fraction of a dense 2-byte
// matrix: ≤10% of its bytes.
TEST(RelationStoreProperty, MapWorkloadStaysUnderTenPercentOfDense) {
  Rng rng(7u + 600u);
  const std::vector<Region> regions = SmallMapRegions(&rng, 600);
  auto store = ComputeRelationStore(regions);
  ASSERT_TRUE(store.ok()) << store.status();
  const size_t dense_bytes = store->pair_count() * sizeof(uint16_t);
  EXPECT_LE(store->bytes(), dense_bytes / 10)
      << "store " << store->bytes() << "B vs dense " << dense_bytes << "B";
}

// Sweep-strip concurrency: many single-row strips across 8 participants
// must produce a bit-identical store, equal to the serial Compute-CDR loop
// (the tsan tier runs this under the race detector; chunk_size 1
// maximises strip interleaving).
TEST(RelationStoreConcurrency, StripParallelismIsDeterministic) {
  Rng rng(0xCAFEu);
  std::vector<Region> regions = SmallOverlapRegions(&rng, 120);
  // A couple of map clusters too, so implicit runs and overlay mix.
  std::vector<Region> map = SmallMapRegions(&rng, 80);
  for (Region& region : map) regions.push_back(std::move(region));

  EngineOptions serial;
  serial.threads = 1;
  auto expected = ComputeRelationStore(regions, serial);
  ASSERT_TRUE(expected.ok()) << expected.status();
  EXPECT_EQ(expected->Digest(), ReferenceDigest(regions));

  for (size_t chunk : {size_t{1}, size_t{7}, size_t{0}}) {
    EngineOptions options;
    options.threads = 8;
    options.chunk_size = chunk;
    EngineStats stats;
    auto store = ComputeRelationStore(regions, options, &stats);
    ASSERT_TRUE(store.ok()) << store.status();
    EXPECT_EQ(stats.threads_used, 8);
    ASSERT_EQ(store->overlay_pairs(), expected->overlay_pairs());
    EXPECT_EQ(store->Digest(), expected->Digest()) << "chunk " << chunk;
  }
}

TEST(RelationStoreEdgeCases, EmptyAndSingletonInputs) {
  std::vector<Region> none;
  auto empty = ComputeRelationStore(none);
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ(empty->regions(), 0u);
  EXPECT_EQ(empty->pair_count(), 0u);
  empty->ForEach([](size_t, size_t, const CardinalRelation&) {
    FAIL() << "no pairs expected";
  });

  std::vector<Region> one;
  one.push_back(Region(MakeRectangle(0, 0, 10, 10)));
  auto single = ComputeRelationStore(one);
  ASSERT_TRUE(single.ok());
  EXPECT_EQ(single->regions(), 1u);
  EXPECT_EQ(single->pair_count(), 0u);
}

TEST(RelationStoreEdgeCases, InvalidRegionIsReported) {
  std::vector<Region> regions;
  regions.push_back(Region(MakeRectangle(0, 0, 10, 10)));
  regions.push_back(Region());  // Empty region: fails Validate().
  auto store = ComputeRelationStore(regions);
  ASSERT_FALSE(store.ok());
  EXPECT_EQ(store.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(store.status().message().find("#1"), std::string::npos);
}

// ---- Mutation-layer shadow model. The store's mutation API (SetRegionBox
// / AppendRegion / PatchPair / EraseRegion) accepts *any*
// profiled box, so — unlike the DeltaEngine, whose inputs are validated
// regions and therefore never degenerate — this harness drives degenerate
// boxes in and out of the overlay directly. The shadow is authoritative:
// it tracks the boxes and the explicit-pair masks, derives explicitness
// from the same class-code formula the store uses, and after every
// mutation the store must agree pair-for-pair via all read paths.

struct ShadowModel {
  struct ShadowBox {
    double min_x, min_y, max_x, max_y;
    uint8_t cross;
  };
  std::vector<ShadowBox> boxes;
  std::map<std::pair<size_t, size_t>, uint16_t> masks;  // Explicit pairs.

  void SetBox(size_t id, const Box& box) {
    boxes[id] = {box.min_x(), box.min_y(), box.max_x(), box.max_y(),
                 static_cast<uint8_t>(
                     box.IsEmpty() || box.IsDegenerate() ? 0x0f : 0x00)};
  }
  uint8_t Code(size_t i, size_t j) const {
    const uint8_t cx = static_cast<uint8_t>(
        ClassifyIntervalClass(boxes[i].min_x, boxes[i].max_x, boxes[j].min_x,
                              boxes[j].max_x));
    const uint8_t cy = static_cast<uint8_t>(
        ClassifyIntervalClass(boxes[i].min_y, boxes[i].max_y, boxes[j].min_y,
                              boxes[j].max_y));
    return static_cast<uint8_t>(static_cast<uint8_t>(cx << 2 | cy) |
                                boxes[i].cross | boxes[j].cross);
  }
  bool Explicit(size_t i, size_t j) const {
    return !RelationStore::ResolvableCode(Code(i, j));
  }
  uint16_t ExpectedMask(size_t i, size_t j) const {
    if (Explicit(i, j)) return masks.at({i, j});
    return ClassPairRelations()[Code(i, j)].mask();
  }
};

void ExpectMatchesShadow(const RelationStore& store,
                         const ShadowModel& shadow) {
  const size_t n = shadow.boxes.size();
  ASSERT_EQ(store.regions(), n);
  size_t flat = 0;
  uint64_t shadow_digest = 0;
  store.ForEach([&](size_t i, size_t j, const CardinalRelation& relation) {
    ASSERT_EQ(relation.mask(), shadow.ExpectedMask(i, j))
        << "pair (" << i << ", " << j << ")";
    ++flat;
  });
  ASSERT_EQ(flat, store.pair_count());
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) {
      if (i == j) continue;
      shadow_digest += MixPairDigest(i, j, shadow.ExpectedMask(i, j));
    }
  }
  ASSERT_EQ(store.Digest(), shadow_digest);
  // Random-access path too (it ranks through patch lists and ghosts).
  for (size_t i = 0; i < n; i += 1 + n / 5) {
    for (size_t j = 0; j < n; ++j) {
      if (i == j) continue;
      ASSERT_EQ(store.Relation(i, j).mask(), shadow.ExpectedMask(i, j))
          << "lookup (" << i << ", " << j << ")";
    }
  }
}

uint16_t RandomMask(Rng* rng) {
  return static_cast<uint16_t>(1 + rng->NextBelow(511));
}

// One-third of the boxes are degenerate (zero width / zero height), so
// mutations constantly flip whole rows and columns between implicit and
// always-explicit.
Box RandomShadowBox(Rng* rng) {
  const double x = rng->NextDouble(0.0, 800.0);
  const double y = rng->NextDouble(0.0, 800.0);
  double w = rng->NextDouble(1.0, 150.0);
  double h = rng->NextDouble(1.0, 150.0);
  const uint64_t kind = rng->NextBelow(6);
  if (kind == 0) w = 0.0;
  if (kind == 1) h = 0.0;
  return Box(x, y, x + w, y + h);
}

// Re-draws the masks of every explicit pair in region id's row and column
// and patches each pair whose state may have changed: `was` holds the
// pre-mutation explicitness of (id, j) at 2j and of (j, id) at 2j + 1.
void PatchShadowRowAndColumn(RelationStore* store, ShadowModel* shadow,
                             size_t id, const std::vector<uint8_t>& was,
                             Rng* rng) {
  const size_t n = shadow->boxes.size();
  for (size_t j = 0; j < n; ++j) {
    if (j == id) continue;
    for (size_t side = 0; side < 2; ++side) {
      const size_t row = side == 0 ? id : j;
      const size_t col = side == 0 ? j : id;
      const bool was_explicit = was[2 * j + side] != 0;
      if (shadow->Explicit(row, col)) {
        const uint16_t mask = RandomMask(rng);
        shadow->masks[{row, col}] = mask;
        store->PatchPair(row, col, was_explicit, true, mask);
      } else {
        shadow->masks.erase({row, col});
        if (was_explicit) store->PatchPair(row, col, true, false, 0);
      }
    }
  }
}

// Applies the caller side of the mutation contract for "region id's box
// becomes `box`": sample old explicitness in row and column id, move the
// profile, patch both wherever they changed.
void ApplyShadowSetBox(RelationStore* store, ShadowModel* shadow, size_t id,
                       const Box& box, Rng* rng) {
  const size_t n = shadow->boxes.size();
  std::vector<uint8_t> was(2 * n, 0);
  for (size_t j = 0; j < n; ++j) {
    if (j == id) continue;
    was[2 * j] = shadow->Explicit(id, j) ? 1 : 0;
    was[2 * j + 1] = shadow->Explicit(j, id) ? 1 : 0;
  }
  shadow->SetBox(id, box);
  store->SetRegionBox(id, box);
  PatchShadowRowAndColumn(store, shadow, id, was, rng);
}

// The appended row and column have no base slots: nothing was explicit.
void ApplyShadowAppend(RelationStore* store, ShadowModel* shadow,
                       const Box& box, Rng* rng) {
  const size_t id = shadow->boxes.size();
  shadow->boxes.push_back({});
  shadow->SetBox(id, box);
  store->AppendRegion(box);
  PatchShadowRowAndColumn(store, shadow, id,
                          std::vector<uint8_t>(2 * (id + 1), 0), rng);
}

void ApplyShadowErase(RelationStore* store, ShadowModel* shadow, size_t id) {
  const size_t n = shadow->boxes.size();
  for (size_t j = 0; j < n; ++j) {
    if (j != id && shadow->Explicit(j, id)) {
      store->PatchPair(j, id, true, false, 0);  // EraseRegion precondition.
    }
  }
  store->EraseRegion(id);
  shadow->boxes.erase(shadow->boxes.begin() + static_cast<ptrdiff_t>(id));
  std::map<std::pair<size_t, size_t>, uint16_t> renumbered;
  for (const auto& entry : shadow->masks) {
    const size_t i = entry.first.first;
    const size_t j = entry.first.second;
    if (i == id || j == id) continue;
    renumbered[{i > id ? i - 1 : i, j > id ? j - 1 : j}] = entry.second;
  }
  shadow->masks = std::move(renumbered);
}

// Randomized scripts over the raw mutation API, degenerate boxes included.
TEST(RelationStoreMutation, ShadowModelScriptsWithDegenerateBoxes) {
  for (uint64_t seed = 0; seed < 60; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(0x5AD0u + seed);
    const int n = 4 + static_cast<int>(rng.NextBelow(10));
    const std::vector<Region> regions = SmallOverlapRegions(&rng, n);
    auto built = ComputeRelationStore(regions);
    ASSERT_TRUE(built.ok()) << built.status();
    RelationStore store = std::move(*built);

    ShadowModel shadow;
    for (const Region& region : regions) {
      shadow.boxes.push_back({});
      shadow.SetBox(shadow.boxes.size() - 1, region.BoundingBox());
    }
    store.ForEach([&](size_t i, size_t j, const CardinalRelation& relation) {
      if (store.IsExplicit(i, j)) shadow.masks[{i, j}] = relation.mask();
    });
    ExpectMatchesShadow(store, shadow);

    const int mutations = 4 + static_cast<int>(rng.NextBelow(14));
    for (int m = 0; m < mutations; ++m) {
      SCOPED_TRACE("mutation " + std::to_string(m));
      const uint64_t kind = rng.NextBelow(5);
      if (kind == 0 || shadow.boxes.size() < 3) {
        ApplyShadowAppend(&store, &shadow, RandomShadowBox(&rng), &rng);
      } else if (kind == 4) {
        ApplyShadowErase(&store, &shadow, rng.NextBelow(shadow.boxes.size()));
      } else {
        ApplyShadowSetBox(&store, &shadow, rng.NextBelow(shadow.boxes.size()),
                          RandomShadowBox(&rng), &rng);
      }
      ExpectMatchesShadow(store, shadow);
    }
  }
}

// Long patch lists: nearly every row's column set churns, so patch lists
// grow to many entries per row (consuming, non-consuming and ghost
// entries interleaved) and keep being edited in place and renumbered by
// EraseRegion; the store has no bound of its own on them (the DeltaEngine
// rebuilds instead). Also checks that the arena recharge tracks the
// footprint, patch lists included.
TEST(RelationStoreMutation, LongPatchListsStayCorrect) {
  Rng rng(0xC03Au);
  const int n = 80;
  const std::vector<Region> regions = SmallOverlapRegions(&rng, n);
  auto built = ComputeRelationStore(regions);
  ASSERT_TRUE(built.ok()) << built.status();
  RelationStore store = std::move(*built);

  ShadowModel shadow;
  for (const Region& region : regions) {
    shadow.boxes.push_back({});
    shadow.SetBox(shadow.boxes.size() - 1, region.BoundingBox());
  }
  store.ForEach([&](size_t i, size_t j, const CardinalRelation& relation) {
    if (store.IsExplicit(i, j)) shadow.masks[{i, j}] = relation.mask();
  });

  for (int m = 0; m < 120; ++m) {
    const uint64_t kind = rng.NextBelow(8);
    if (kind == 7) {
      ApplyShadowErase(&store, &shadow, rng.NextBelow(shadow.boxes.size()));
    } else {
      // Mostly box moves over a shared canvas: nearly every row's column
      // set churns, so patch lists grow long.
      ApplyShadowSetBox(&store, &shadow, rng.NextBelow(shadow.boxes.size()),
                        RandomShadowBox(&rng), &rng);
    }
  }
  EXPECT_GT(store.edited_rows(), 0u);
  // Long lists: more than 16 eight-byte entries per edited row on average.
  EXPECT_GT(store.patch_bytes(), store.edited_rows() * 16 * 8);
  ExpectMatchesShadow(store, shadow);

#ifdef CARDIR_OBS_ENABLED
  // The arena recharge must track the mutated footprint exactly.
  obs::MemArena& arena = obs::MemArena::Get("relation_store");
  store.RechargeMem();
  const int64_t live_after = arena.LiveBytes();
  store.RechargeMem();  // Idempotent: same footprint, same charge.
  EXPECT_EQ(arena.LiveBytes(), live_after);
  {
    RelationStore copy = store;  // Copy charges its own (edited) footprint.
    EXPECT_EQ(copy.Digest(), store.Digest());
    EXPECT_EQ(arena.LiveBytes(),
              live_after + static_cast<int64_t>(copy.bytes()));
  }
  EXPECT_EQ(arena.LiveBytes(), live_after);
#endif  // CARDIR_OBS_ENABLED

  // A move hands the patch layer over whole; the source reads empty.
  const size_t bytes_before_move = store.bytes();
  const size_t patch_bytes_before_move = store.patch_bytes();
  RelationStore moved = std::move(store);
  EXPECT_EQ(moved.bytes(), bytes_before_move);
  EXPECT_EQ(moved.patch_bytes(), patch_bytes_before_move);
  EXPECT_EQ(store.patch_bytes(), 0u);  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(store.bytes(), 0u);        // NOLINT(bugprone-use-after-move)
}

#ifdef CARDIR_OBS_ENABLED
// The mem.relation_store arena must balance: live returns to zero when
// stores die, and the charge follows the store across moves.
TEST(RelationStoreMemstats, ArenaChargesBalanceAcrossMoveAndDestroy) {
  obs::MemArena& arena = obs::MemArena::Get("relation_store");
  const int64_t live_before = arena.LiveBytes();
  Rng rng(99u);
  const std::vector<Region> regions = SmallOverlapRegions(&rng, 40);
  {
    auto store = ComputeRelationStore(regions);
    ASSERT_TRUE(store.ok());
    EXPECT_EQ(arena.LiveBytes() - live_before,
              static_cast<int64_t>(store->bytes()));
    RelationStore moved = std::move(*store);  // Charge moves, not doubles.
    EXPECT_EQ(arena.LiveBytes() - live_before,
              static_cast<int64_t>(moved.bytes()));
  }
  EXPECT_EQ(arena.LiveBytes(), live_before);
}
#endif  // CARDIR_OBS_ENABLED

}  // namespace
}  // namespace cardir
