// DeltaEngine correctness contract: after ANY mutation sequence, the
// maintained store's Digest() is bit-identical to the serial Compute-CDR
// loop over the same geometries. The oracle below drives 500+ randomized
// mutation scripts (mixed insert/move/delete over map-like, overlap-heavy
// and free-form generators, initial builds across the 1/2/4-thread oracle
// grid) and holds the delta store against ReferenceDigest after every
// single mutation — so a dirty-set gap, a stale patch, or a mis-ranked
// overlay cursor fails on the exact script step that introduced it (seeds
// are in the trace).

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "engine/delta_engine.h"
#include "engine/relation_store.h"
#include "geometry/region.h"
#include "gtest/gtest.h"
#include "obs/memstats.h"
#include "obs/metrics.h"
#include "properties/random_instances.h"
#include "properties/reference_relations.h"
#include "util/random.h"
#include "workload/region_gen.h"

namespace cardir {
namespace {

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

Region RandomMutationRegion(Rng* rng) {
  switch (rng->NextBelow(3)) {
    case 0: {
      // Somewhere on the map canvas, likely overlapping a cluster.
      const double size = rng->NextDouble(20.0, 220.0);
      const double x = rng->NextDouble(0.0, 900.0);
      const double y = rng->NextDouble(0.0, 900.0);
      return Region(MakeRectangle(x, y, x + size, y + size));
    }
    case 1:
      return RandomTestRegion(rng);
    default: {
      // Multi-polygon region spanning a wide box — stresses the shortcut
      // kernel's per-polygon extents.
      const double x = rng->NextDouble(0.0, 700.0);
      const double y = rng->NextDouble(0.0, 700.0);
      Region region(MakeRectangle(x, y, x + 40.0, y + 30.0));
      region.AddPolygon(
          MakeRectangle(x + 90.0, y + 5.0, x + 160.0, y + 55.0));
      return region;
    }
  }
}

// The headline oracle: 500 scripts, digest checked after every mutation.
TEST(DeltaEngineProperty, MutationScriptsMatchSerialLoopOn500Scripts) {
  const std::vector<EngineOptions> grid = OracleEngineOptions();
  // Scripts whose store ends carrying patches: the differential must hold
  // the patch path itself, not stores a rebuild just replaced, so small
  // engines must stay under the rebuild floor.
  size_t patched_scripts = 0;
  for (uint64_t seed = 0; seed < 500; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(0xDE17A000u + seed);
    const int n = 3 + static_cast<int>(rng.NextBelow(14));
    std::vector<Region> mirror;
    switch (seed % 3) {
      case 0:
        mirror = SmallMapRegions(&rng, n);
        break;
      case 1:
        mirror = SmallOverlapRegions(&rng, n);
        break;
      default:
        for (int i = 0; i < n; ++i) mirror.push_back(RandomTestRegion(&rng));
        break;
    }

    auto engine = DeltaEngine::Build(mirror, grid[(seed / 3) % grid.size()]);
    ASSERT_TRUE(engine.ok()) << engine.status();
    ASSERT_EQ(engine.value().Digest(), ReferenceDigest(mirror));

    const int mutations = 3 + static_cast<int>(rng.NextBelow(6));
    for (int m = 0; m < mutations; ++m) {
      SCOPED_TRACE("mutation " + std::to_string(m));
      const uint64_t kind = rng.NextBelow(4);
      Result<DeltaResult> applied = Status::Internal("unset");
      if (kind == 0 || mirror.size() < 2) {
        Region region = RandomMutationRegion(&rng);
        mirror.push_back(region);
        applied = engine.value().Insert(std::move(region));
      } else if (kind == 3) {
        const size_t id = rng.NextBelow(mirror.size());
        mirror.erase(mirror.begin() + static_cast<ptrdiff_t>(id));
        applied = engine.value().Remove(id);
      } else if (kind == 1) {
        // Wholesale geometry replacement.
        const size_t id = rng.NextBelow(mirror.size());
        Region region = RandomMutationRegion(&rng);
        mirror[id] = region;
        applied = engine.value().Move(id, std::move(region));
      } else {
        // Grow-in-place: the Configuration::AddPolygonToRegion pattern.
        const size_t id = rng.NextBelow(mirror.size());
        const double x = rng.NextDouble(0.0, 900.0);
        const double y = rng.NextDouble(0.0, 900.0);
        Region region = mirror[id];
        region.AddPolygon(MakeRectangle(x, y, x + rng.NextDouble(5.0, 80.0),
                                        y + rng.NextDouble(5.0, 80.0)));
        mirror[id] = region;
        applied = engine.value().Move(id, std::move(region));
      }
      ASSERT_TRUE(applied.ok()) << applied.status();
      ASSERT_EQ(engine.value().regions(), mirror.size());
      ASSERT_EQ(engine.value().Digest(), ReferenceDigest(mirror));
      // Touched lists both directions of every dirty pair, and the two
      // counters partition exactly that set.
      EXPECT_EQ(applied.value().touched.size() % 2, 0u);
      EXPECT_EQ(applied.value().touched.size(),
                applied.value().pairs_reresolved +
                    applied.value().pairs_implicit)
          << "reresolved + implicit must cover the dirty set";
    }
    if (engine.value().store().edited_rows() != 0) ++patched_scripts;
  }
  EXPECT_GE(patched_scripts, 400u);
}

// Dirty-set completeness, checked structurally rather than via the digest:
// after a move, every pair that is explicit *now* and involves the moved
// region must appear in `touched` — if the candidate gather missed one,
// its overlay entry would be stale.
TEST(DeltaEngineTest, TouchedCoversExplicitPairsOfMovedRegion) {
  Rng rng(0x70C4Edu);
  std::vector<Region> regions = SmallOverlapRegions(&rng, 60);
  auto engine = DeltaEngine::Build(regions);
  ASSERT_TRUE(engine.ok()) << engine.status();

  for (int m = 0; m < 20; ++m) {
    const size_t id = rng.NextBelow(regions.size());
    Region region = RandomMutationRegion(&rng);
    regions[id] = region;
    const auto applied = engine.value().Move(id, std::move(region));
    ASSERT_TRUE(applied.ok()) << applied.status();
    const RelationStore& store = engine.value().store();
    std::vector<std::pair<uint32_t, uint32_t>> touched =
        applied.value().touched;
    std::sort(touched.begin(), touched.end());
    for (size_t j = 0; j < regions.size(); ++j) {
      if (j == id) continue;
      for (const auto& pair :
           {std::make_pair(id, j), std::make_pair(j, id)}) {
        if (!store.IsExplicit(pair.first, pair.second)) continue;
        const auto key = std::make_pair(static_cast<uint32_t>(pair.first),
                                        static_cast<uint32_t>(pair.second));
        ASSERT_TRUE(std::binary_search(touched.begin(), touched.end(), key))
            << "explicit pair (" << pair.first << ", " << pair.second
            << ") missing from touched after move " << m;
      }
    }
  }
}

#ifdef CARDIR_OBS_ENABLED
uint64_t RebuildCount() {
  return obs::CaptureMetrics().counter("delta.rebuilds");
}
#endif  // CARDIR_OBS_ENABLED

// A long churn run on one engine: enough mutations to cycle the interval
// indexes and the store through several amortized rebuilds, ending in a
// full pair-for-pair comparison (not just the digest) against a fresh
// sweep store, and a digest check against the serial Compute-CDR loop.
TEST(DeltaEngineTest, LongChurnEndsPairIdenticalToFreshStore) {
#ifdef CARDIR_OBS_ENABLED
  const uint64_t rebuilds_before = RebuildCount();
#endif  // CARDIR_OBS_ENABLED
  Rng rng(0xC4C4u);
  std::vector<Region> mirror = SmallOverlapRegions(&rng, 90);
  auto engine = DeltaEngine::Build(mirror);
  ASSERT_TRUE(engine.ok()) << engine.status();

  for (int m = 0; m < 300; ++m) {
    const uint64_t kind = rng.NextBelow(4);
    if (kind == 0 || mirror.size() < 30) {
      Region region = RandomMutationRegion(&rng);
      mirror.push_back(region);
      ASSERT_TRUE(engine.value().Insert(std::move(region)).ok());
    } else if (kind == 3) {
      const size_t id = rng.NextBelow(mirror.size());
      mirror.erase(mirror.begin() + static_cast<ptrdiff_t>(id));
      ASSERT_TRUE(engine.value().Remove(id).ok());
    } else {
      const size_t id = rng.NextBelow(mirror.size());
      Region region = RandomMutationRegion(&rng);
      mirror[id] = region;
      ASSERT_TRUE(engine.value().Move(id, std::move(region)).ok());
    }
  }

  auto fresh = ComputeRelationStore(mirror);
  ASSERT_TRUE(fresh.ok()) << fresh.status();
  const RelationStore& maintained = engine.value().store();
  ASSERT_EQ(maintained.regions(), fresh->regions());
  ASSERT_EQ(maintained.Digest(), fresh->Digest());
  ASSERT_EQ(maintained.Digest(), ReferenceDigest(mirror));
  fresh->ForEach([&maintained](size_t i, size_t j,
                               const CardinalRelation& relation) {
    ASSERT_EQ(maintained.Relation(i, j).mask(), relation.mask())
        << "pair (" << i << ", " << j << ")";
  });
#ifdef CARDIR_OBS_ENABLED
  // The churn crossed the store-rebuild threshold at least once.
  EXPECT_GT(RebuildCount(), rebuilds_before);
#endif  // CARDIR_OBS_ENABLED
}

// A sparse layout — a grid of ~1,000 equal, separated rectangles, so no
// pair is explicit and the fresh store is ~41 bytes per region — under a
// few hundred moves that each push one rectangle across into its
// right-hand neighbour's cell and back. Each move patches only the pairs
// against its old and new grid columns. The per-row
// list headers the first patch allocates (24 bytes a row, more than a
// third of this base) must not count against the rebuild budget, or every
// patching move would rebuild the whole store.
TEST(DeltaEngineTest, SparseLayoutMovesDoNotRebuildTheStore) {
  constexpr int kRegions = 1024;
  constexpr int kGrid = 32;
  constexpr double kCell = 10.0;
  std::vector<Region> originals;
  for (int i = 0; i < kRegions; ++i) {
    const double x = (i % kGrid) * kCell;
    const double y = (i / kGrid) * kCell;
    originals.emplace_back(MakeRectangle(x + 1.0, y + 1.0, x + kCell - 1.0,
                                         y + kCell - 1.0));
  }
  std::vector<Region> mirror = originals;
  auto engine = DeltaEngine::Build(mirror);
  ASSERT_TRUE(engine.ok()) << engine.status();
  ASSERT_EQ(engine.value().store().overlay_pairs(), 0u);
#ifdef CARDIR_OBS_ENABLED
  const uint64_t rebuilds_before = RebuildCount();
#endif  // CARDIR_OBS_ENABLED

  Rng rng(0x5BA4u);
  size_t patching_moves = 0;
  for (int m = 0; m < 300; ++m) {
    const size_t id = rng.NextBelow(kRegions);
    const double x = static_cast<double>(id % kGrid) * kCell;
    const double y = static_cast<double>(id / kGrid) * kCell;
    Region straddle(MakeRectangle(x + 0.5 * kCell, y + 2.0,
                                  x + 1.5 * kCell, y + kCell - 2.0));
    mirror[id] = straddle;
    auto out = engine.value().Move(id, std::move(straddle));
    ASSERT_TRUE(out.ok()) << out.status();
    if (out->pairs_reresolved > 0) ++patching_moves;
    mirror[id] = originals[id];
    ASSERT_TRUE(engine.value().Move(id, originals[id]).ok());
  }
  EXPECT_GT(patching_moves, 100u);
  EXPECT_EQ(engine.value().Digest(), ReferenceDigest(mirror));
#ifdef CARDIR_OBS_ENABLED
  EXPECT_LE(RebuildCount() - rebuilds_before, 1u);
#endif  // CARDIR_OBS_ENABLED
}

// Soak: a ~2,000-region map layout under a grow / insert / grow / remove
// edit mix (grows append a small polygon to an original region, half the
// time straddling into the neighbouring cell; inserts land mid-cell;
// removes take the oldest insert). Every 500 edits the maintained store
// must stay within 1.5x the bytes of a fresh compute of the same geometry
// — the patch layer is bounded by store rebuilds — and the run ends
// digest-identical to that fresh store.
TEST(DeltaEngineSoak, MapChurnStaysWithinOneAndAHalfFreshBytes) {
#ifdef CARDIR_OBS_ENABLED
  const uint64_t rebuilds_before = RebuildCount();
#endif  // CARDIR_OBS_ENABLED
  constexpr int kOriginals = 2000;
  constexpr int kEdits = 5200;
  Rng rng(0x50A4u);
  std::vector<Region> mirror = SmallMapRegions(&rng, kOriginals);
  const int grid =
      1 + static_cast<int>(std::sqrt(static_cast<double>(kOriginals)));
  const double cell = 1000.0 / grid;
  auto engine = DeltaEngine::Build(mirror);
  ASSERT_TRUE(engine.ok()) << engine.status();

  const auto star_in = [&rng](double cx, double cy, double half) {
    RegionGenOptions options;
    options.bounds = Box(cx - half, cy - half, cx + half, cy + half);
    return RandomRegion(&rng, options);
  };
  const auto insert = [&]() {
    const int target = static_cast<int>(rng.NextBelow(kOriginals));
    const double x = (target % grid + 0.5) * cell;
    const double y = (target / grid + 0.5) * cell;
    Region region = star_in(x, y, 0.3 * cell);
    mirror.push_back(region);
    ASSERT_TRUE(engine.value().Insert(std::move(region)).ok());
  };
  const auto grow = [&]() {
    const int target = static_cast<int>(rng.NextBelow(kOriginals));
    const int cx = target % grid;
    const int cy = target / grid;
    const double half = 0.15 * cell;
    double x = rng.NextDouble(cx * cell + half, (cx + 1) * cell - half);
    double y = rng.NextDouble(cy * cell + half, (cy + 1) * cell - half);
    if (rng.NextBelow(2) == 0) {
      if (rng.NextBelow(2) == 0) {
        x = (cx + 1) * cell;
      } else {
        y = (cy + 1) * cell;
      }
    }
    Region& region = mirror[static_cast<size_t>(target)];
    region.AddPolygon(star_in(x, y, half).polygons().front());
    ASSERT_TRUE(
        engine.value().Move(static_cast<size_t>(target), region).ok());
  };
  const auto remove_oldest_insert = [&]() {
    // Inserts append and removes take the oldest, so the oldest surviving
    // insert always sits right after the originals.
    mirror.erase(mirror.begin() + kOriginals);
    ASSERT_TRUE(engine.value().Remove(kOriginals).ok());
  };

  insert();
  for (int edit = 1; edit <= kEdits; ++edit) {
    switch (edit % 4) {
      case 1:
      case 3:
        grow();
        break;
      case 2:
        insert();
        break;
      default:
        remove_oldest_insert();
        break;
    }
    if (HasFatalFailure()) return;
    if (edit % 500 == 0) {
      SCOPED_TRACE("edit " + std::to_string(edit));
      auto fresh = ComputeRelationStore(mirror);
      ASSERT_TRUE(fresh.ok()) << fresh.status();
      ASSERT_LE(static_cast<double>(engine.value().store().bytes()),
                1.5 * static_cast<double>(fresh->bytes()));
    }
  }

  auto fresh = ComputeRelationStore(mirror);
  ASSERT_TRUE(fresh.ok()) << fresh.status();
  EXPECT_EQ(engine.value().Digest(), fresh->Digest());
#ifdef CARDIR_OBS_ENABLED
  EXPECT_GT(RebuildCount(), rebuilds_before);
#endif  // CARDIR_OBS_ENABLED
}

TEST(DeltaEngineTest, AdoptedStoreNeedsNoRecompute) {
  Rng rng(0xAD09u);
  std::vector<Region> regions = SmallMapRegions(&rng, 40);
  auto store = ComputeRelationStore(regions);
  ASSERT_TRUE(store.ok()) << store.status();
  const uint64_t before = store->Digest();

  DeltaEngine engine = DeltaEngine::Adopt(std::move(*store), regions);
  EXPECT_EQ(engine.Digest(), before);

  // And it is live: a mutation through the adopted engine tracks fresh
  // compute.
  Region moved = RandomMutationRegion(&rng);
  regions[7] = moved;
  ASSERT_TRUE(engine.Move(7, std::move(moved)).ok());
  EXPECT_EQ(engine.Digest(), ReferenceDigest(regions));
}

TEST(DeltaEngineTest, ErrorsLeaveEngineUntouched) {
  Rng rng(0xE88u);
  std::vector<Region> regions = SmallMapRegions(&rng, 10);
  auto engine = DeltaEngine::Build(regions);
  ASSERT_TRUE(engine.ok()) << engine.status();
  const uint64_t digest = engine.value().Digest();

  EXPECT_EQ(engine.value().Move(99, Region(MakeRectangle(0, 0, 1, 1)))
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(engine.value().Remove(99).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(engine.value().Insert(Region()).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(engine.value().Move(3, Region()).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(engine.value().regions(), regions.size());
  EXPECT_EQ(engine.value().Digest(), digest);
}

TEST(DeltaEngineTest, GrowFromEmptyEngine) {
  auto engine = DeltaEngine::Build({});
  ASSERT_TRUE(engine.ok()) << engine.status();
  EXPECT_EQ(engine.value().regions(), 0u);

  std::vector<Region> mirror;
  Rng rng(0x60Fu);
  for (int i = 0; i < 12; ++i) {
    Region region = RandomMutationRegion(&rng);
    mirror.push_back(region);
    const auto applied = engine.value().Insert(std::move(region));
    ASSERT_TRUE(applied.ok()) << applied.status();
    ASSERT_EQ(engine.value().Digest(), ReferenceDigest(mirror));
  }
  while (!mirror.empty()) {
    const size_t id = rng.NextBelow(mirror.size());
    mirror.erase(mirror.begin() + static_cast<ptrdiff_t>(id));
    ASSERT_TRUE(engine.value().Remove(id).ok());
    ASSERT_EQ(engine.value().Digest(), ReferenceDigest(mirror));
  }
  EXPECT_EQ(engine.value().regions(), 0u);
}

#ifdef CARDIR_OBS_ENABLED
// The delta_engine arena (indexes + polygon extents + scratch) must
// balance to zero when engines die, and follow the engine across moves
// and copies like the store's own arena does.
TEST(DeltaEngineMemstats, AuxArenaBalancesAcrossCopyMoveAndDestroy) {
  obs::MemArena& arena = obs::MemArena::Get("delta_engine");
  const int64_t live_before = arena.LiveBytes();
  Rng rng(0x3E3Au);
  std::vector<Region> regions = SmallOverlapRegions(&rng, 30);
  {
    auto built = DeltaEngine::Build(regions);
    ASSERT_TRUE(built.ok());
    DeltaEngine& engine = built.value();
    const int64_t live_single = arena.LiveBytes();
    ASSERT_GT(live_single, live_before);

    DeltaEngine copy(engine);  // Copy charges its own footprint...
    ASSERT_GT(arena.LiveBytes(), live_single);
    const int64_t live_with_copy = arena.LiveBytes();

    DeltaEngine moved(std::move(copy));  // ...a move transfers it.
    EXPECT_EQ(arena.LiveBytes(), live_with_copy);
    ASSERT_TRUE(moved.Move(3, RandomMutationRegion(&rng)).ok());
  }
  EXPECT_EQ(arena.LiveBytes(), live_before);
}
#endif  // CARDIR_OBS_ENABLED

}  // namespace
}  // namespace cardir
