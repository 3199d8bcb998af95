#include "cardirect/model.h"

#include <gtest/gtest.h>

namespace cardir {
namespace {

AnnotatedRegion MakeRegion(const std::string& id, const std::string& color,
                           double x0, double y0, double x1, double y1) {
  AnnotatedRegion region;
  region.id = id;
  region.name = id + "-name";
  region.color = color;
  region.geometry.AddPolygon(MakeRectangle(x0, y0, x1, y1));
  return region;
}

TEST(ConfigurationTest, AddAndFindRegions) {
  Configuration config("test", "map.png");
  ASSERT_TRUE(config.AddRegion(MakeRegion("a", "red", 0, 0, 10, 10)).ok());
  ASSERT_TRUE(config.AddRegion(MakeRegion("b", "blue", 20, 0, 30, 10)).ok());
  EXPECT_EQ(config.regions().size(), 2u);
  ASSERT_NE(config.FindRegion("a"), nullptr);
  EXPECT_EQ(config.FindRegion("a")->color, "red");
  EXPECT_EQ(config.FindRegion("missing"), nullptr);
}

TEST(ConfigurationTest, RejectsDuplicateAndEmptyIds) {
  Configuration config;
  ASSERT_TRUE(config.AddRegion(MakeRegion("a", "red", 0, 0, 1, 1)).ok());
  EXPECT_EQ(config.AddRegion(MakeRegion("a", "blue", 2, 2, 3, 3)).code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(config.AddRegion(MakeRegion("", "red", 0, 0, 1, 1)).code(),
            StatusCode::kInvalidArgument);
}

TEST(ConfigurationTest, RejectsInvalidGeometry) {
  Configuration config;
  AnnotatedRegion bad;
  bad.id = "bad";
  EXPECT_FALSE(config.AddRegion(bad).ok());  // Empty region.
}

TEST(ConfigurationTest, ReorientsCounterClockwiseInput) {
  Configuration config;
  AnnotatedRegion region;
  region.id = "ccw";
  region.geometry.AddPolygon(
      Polygon({Point(0, 0), Point(1, 0), Point(1, 1), Point(0, 1)}));
  ASSERT_TRUE(config.AddRegion(region).ok());
  EXPECT_TRUE(config.FindRegion("ccw")->geometry.polygons()[0].IsClockwise());
}

TEST(ConfigurationTest, RegionsByColor) {
  Configuration config;
  ASSERT_TRUE(config.AddRegion(MakeRegion("a", "red", 0, 0, 1, 1)).ok());
  ASSERT_TRUE(config.AddRegion(MakeRegion("b", "blue", 2, 0, 3, 1)).ok());
  ASSERT_TRUE(config.AddRegion(MakeRegion("c", "red", 4, 0, 5, 1)).ok());
  EXPECT_EQ(config.RegionsByColor("red").size(), 2u);
  EXPECT_EQ(config.RegionsByColor("blue").size(), 1u);
  EXPECT_TRUE(config.RegionsByColor("green").empty());
}

TEST(ConfigurationTest, ComputeAllRelationsProducesAllOrderedPairs) {
  Configuration config;
  ASSERT_TRUE(config.AddRegion(MakeRegion("a", "red", 0, 0, 10, 10)).ok());
  ASSERT_TRUE(config.AddRegion(MakeRegion("b", "blue", 2, -20, 8, -12)).ok());
  ASSERT_TRUE(config.ComputeAllRelations().ok());
  EXPECT_EQ(config.relation_count(), 2u);
  // Computed relations live in the RelationStore, not as explicit records.
  EXPECT_TRUE(config.relations().empty());
  ASSERT_NE(config.relation_store(), nullptr);
  auto ab = config.StoredRelation("a", "b");
  ASSERT_TRUE(ab.has_value());
  // a is north of b, spilling over b's narrower mbb into NW and NE.
  EXPECT_EQ(ab->ToString(), "NW:N:NE");
  auto ba = config.StoredRelation("b", "a");
  ASSERT_TRUE(ba.has_value());
  EXPECT_EQ(ba->ToString(), "S");
  EXPECT_FALSE(config.StoredRelation("a", "missing").has_value());
}

TEST(ConfigurationTest, RemoveRegionDropsItsRelations) {
  Configuration config;
  ASSERT_TRUE(config.AddRegion(MakeRegion("a", "red", 0, 0, 10, 10)).ok());
  ASSERT_TRUE(config.AddRegion(MakeRegion("b", "blue", 0, 20, 10, 30)).ok());
  ASSERT_TRUE(config.ComputeAllRelations().ok());
  ASSERT_TRUE(config.RemoveRegion("b").ok());
  EXPECT_FALSE(config.has_relations());
  EXPECT_TRUE(config.relations().empty());
  EXPECT_EQ(config.RemoveRegion("b").code(), StatusCode::kNotFound);
}

// After any delta-maintained mutation the configuration must answer
// StoredRelation / relation_count / ForEachRelation exactly as a copy that
// recomputes from scratch would.
void ExpectMatchesRecompute(const Configuration& config) {
  Configuration fresh = config;
  ASSERT_TRUE(fresh.ComputeAllRelations().ok());
  ASSERT_EQ(config.relation_count(), fresh.relation_count());
  const auto& regions = config.regions();
  for (const AnnotatedRegion& primary : regions) {
    for (const AnnotatedRegion& reference : regions) {
      if (primary.id == reference.id) continue;
      auto got = config.StoredRelation(primary.id, reference.id);
      auto want = fresh.StoredRelation(primary.id, reference.id);
      ASSERT_EQ(got.has_value(), want.has_value())
          << primary.id << " vs " << reference.id;
      if (got.has_value()) {
        EXPECT_EQ(got->ToString(), want->ToString())
            << primary.id << " vs " << reference.id;
      }
    }
  }
  size_t iterated = 0;
  config.ForEachRelation([&iterated](const std::string&, const std::string&,
                                     const CardinalRelation&) { ++iterated; });
  EXPECT_EQ(iterated, config.relation_count());
}

TEST(ConfigurationTest, AddRegionAfterComputeMaintainsStoreIncrementally) {
  Configuration config;
  ASSERT_TRUE(config.AddRegion(MakeRegion("a", "red", 0, 0, 10, 10)).ok());
  ASSERT_TRUE(config.AddRegion(MakeRegion("b", "blue", 4, 4, 14, 14)).ok());
  ASSERT_TRUE(config.ComputeAllRelations().ok());

  // The insert rides the delta engine; no recompute, no explicit records.
  ASSERT_TRUE(config.AddRegion(MakeRegion("c", "green", 2, -9, 12, -1)).ok());
  ASSERT_NE(config.relation_store(), nullptr);
  EXPECT_TRUE(config.relations().empty());
  EXPECT_EQ(config.relation_count(), 6u);
  ExpectMatchesRecompute(config);

  // A failed insert (duplicate id) must leave the store untouched.
  EXPECT_EQ(config.AddRegion(MakeRegion("c", "red", 0, 0, 1, 1)).code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(config.relation_count(), 6u);
  ExpectMatchesRecompute(config);
}

TEST(ConfigurationTest, AddPolygonAfterComputeReResolvesItsPairs) {
  Configuration config;
  ASSERT_TRUE(config.AddRegion(MakeRegion("a", "red", 0, 0, 10, 10)).ok());
  ASSERT_TRUE(config.AddRegion(MakeRegion("b", "blue", 20, 0, 30, 10)).ok());
  ASSERT_TRUE(config.ComputeAllRelations().ok());
  ASSERT_EQ(config.StoredRelation("a", "b")->ToString(), "W");

  // Growing `a` eastwards past `b` flips the stored relation without a
  // recompute — and leaves the untouched direction consistent too.
  ASSERT_TRUE(
      config.AddPolygonToRegion("a", MakeRectangle(35, 0, 45, 10)).ok());
  EXPECT_EQ(config.StoredRelation("a", "b")->ToString(), "W:E");
  EXPECT_TRUE(config.relations().empty());
  ExpectMatchesRecompute(config);

  EXPECT_EQ(config.AddPolygonToRegion("missing", MakeRectangle(0, 0, 1, 1))
                .code(),
            StatusCode::kNotFound);
}

TEST(ConfigurationTest, RemoveRegionAfterComputeKeepsOtherPairs) {
  Configuration config;
  ASSERT_TRUE(config.AddRegion(MakeRegion("a", "red", 0, 0, 10, 10)).ok());
  ASSERT_TRUE(config.AddRegion(MakeRegion("b", "blue", 3, 3, 13, 13)).ok());
  ASSERT_TRUE(config.AddRegion(MakeRegion("c", "green", 0, 20, 10, 30)).ok());
  ASSERT_TRUE(config.ComputeAllRelations().ok());
  const std::string ab = config.StoredRelation("a", "b")->ToString();

  ASSERT_TRUE(config.RemoveRegion("c").ok());
  EXPECT_EQ(config.relation_count(), 2u);
  // The surviving pair keeps its stored relation verbatim.
  EXPECT_EQ(config.StoredRelation("a", "b")->ToString(), ab);
  EXPECT_FALSE(config.StoredRelation("a", "c").has_value());
  ExpectMatchesRecompute(config);

  // Interleave every mutation kind and stay recompute-consistent.
  ASSERT_TRUE(config.AddRegion(MakeRegion("d", "red", 8, 8, 18, 24)).ok());
  ASSERT_TRUE(
      config.AddPolygonToRegion("b", MakeRectangle(-8, -8, -2, -2)).ok());
  ASSERT_TRUE(config.RemoveRegion("a").ok());
  EXPECT_EQ(config.relation_count(), 2u);
  ExpectMatchesRecompute(config);
}

// The engine reads the geometry of the configuration that owns it. A copy
// of an already edited configuration must carry no engine state that
// points into its source: edits on either side, and the source's
// destruction, leave the other recompute-exact.
TEST(ConfigurationTest, CopiesOfAnEditedConfigurationStayIndependent) {
  Configuration original;
  ASSERT_TRUE(original.AddRegion(MakeRegion("a", "red", 0, 0, 10, 10)).ok());
  ASSERT_TRUE(original.AddRegion(MakeRegion("b", "blue", 5, 3, 15, 12)).ok());
  ASSERT_TRUE(original.AddRegion(MakeRegion("c", "red", 8, -6, 20, 4)).ok());
  ASSERT_TRUE(original.AddRegion(MakeRegion("d", "green", -4, 6, 6, 18)).ok());
  ASSERT_TRUE(original.AddRegion(MakeRegion("e", "blue", 2, 2, 24, 8)).ok());
  ASSERT_TRUE(original.ComputeAllRelations().ok());
  ASSERT_TRUE(
      original.AddPolygonToRegion("a", MakeRectangle(12, 14, 18, 20)).ok());

  Configuration copy = original;
  ASSERT_TRUE(copy.AddPolygonToRegion("b", MakeRectangle(-9, -9, -3, 1)).ok());
  ASSERT_TRUE(copy.AddRegion(MakeRegion("f", "red", 3, -2, 13, 16)).ok());
  ASSERT_TRUE(copy.RemoveRegion("a").ok());
  ExpectMatchesRecompute(copy);
  ExpectMatchesRecompute(original);

  ASSERT_TRUE(
      original.AddPolygonToRegion("d", MakeRectangle(21, -8, 27, 0)).ok());
  ASSERT_TRUE(original.AddRegion(MakeRegion("g", "blue", 6, 6, 9, 30)).ok());
  ASSERT_TRUE(original.RemoveRegion("b").ok());
  ExpectMatchesRecompute(original);
  ExpectMatchesRecompute(copy);
  EXPECT_NE(original.FindRegion("a"), nullptr);
  EXPECT_EQ(copy.FindRegion("a"), nullptr);

  // Copy-assigned from a source that then dies: the survivor's engine
  // reads only the survivor's regions.
  Configuration survivor;
  {
    Configuration source = copy;
    ASSERT_TRUE(source.RemoveRegion("c").ok());
    survivor = source;
  }
  ASSERT_TRUE(
      survivor.AddPolygonToRegion("e", MakeRectangle(-7, 20, 1, 26)).ok());
  ASSERT_TRUE(survivor.AddRegion(MakeRegion("h", "red", 0, 9, 30, 11)).ok());
  ASSERT_TRUE(survivor.RemoveRegion("d").ok());
  ExpectMatchesRecompute(survivor);
  ExpectMatchesRecompute(copy);
}

// The engine exists from the compute on, whatever the size: edits of a
// computed configuration with no region or one region stay
// recompute-exact.
TEST(ConfigurationTest, EditsOfComputedEmptyAndSingleRegionConfigurations) {
  Configuration empty;
  ASSERT_TRUE(empty.ComputeAllRelations().ok());
  ASSERT_NE(empty.relation_store(), nullptr);
  EXPECT_EQ(empty.relation_count(), 0u);
  ASSERT_TRUE(empty.AddRegion(MakeRegion("a", "red", 0, 0, 10, 10)).ok());
  EXPECT_EQ(empty.relation_count(), 0u);
  ExpectMatchesRecompute(empty);
  ASSERT_TRUE(empty.AddPolygonToRegion("a", MakeRectangle(12, 0, 15, 4)).ok());
  ExpectMatchesRecompute(empty);
  ASSERT_TRUE(empty.AddRegion(MakeRegion("b", "blue", 4, 4, 14, 14)).ok());
  EXPECT_EQ(empty.relation_count(), 2u);
  ExpectMatchesRecompute(empty);
  ASSERT_TRUE(empty.RemoveRegion("a").ok());
  ASSERT_TRUE(empty.RemoveRegion("b").ok());
  ASSERT_NE(empty.relation_store(), nullptr);
  EXPECT_EQ(empty.relation_count(), 0u);
  ExpectMatchesRecompute(empty);

  Configuration single;
  ASSERT_TRUE(single.AddRegion(MakeRegion("a", "red", 0, 0, 10, 10)).ok());
  ASSERT_TRUE(single.ComputeAllRelations().ok());
  ASSERT_NE(single.relation_store(), nullptr);
  EXPECT_EQ(single.relation_count(), 0u);
  ASSERT_TRUE(
      single.AddPolygonToRegion("a", MakeRectangle(-6, 2, -1, 8)).ok());
  ExpectMatchesRecompute(single);
  ASSERT_TRUE(single.AddRegion(MakeRegion("b", "blue", -3, 5, 3, 20)).ok());
  EXPECT_EQ(single.relation_count(), 2u);
  ExpectMatchesRecompute(single);
  ASSERT_TRUE(single.RemoveRegion("a").ok());
  EXPECT_EQ(single.relation_count(), 0u);
  ExpectMatchesRecompute(single);
  ASSERT_TRUE(single.RemoveRegion("b").ok());
  ASSERT_TRUE(single.AddRegion(MakeRegion("c", "green", 1, 1, 2, 2)).ok());
  ExpectMatchesRecompute(single);
}

// Ids resolve through an id→index map. Removing a region shifts the index
// of every later region; each lookup must land on the region now at that
// position, with and without a computed store.
void ExpectLookupsFollowPositions(const Configuration& config) {
  const auto& regions = config.regions();
  const RelationStore* store = config.relation_store();
  for (size_t i = 0; i < regions.size(); ++i) {
    ASSERT_EQ(config.FindRegion(regions[i].id), &regions[i]) << i;
    if (store == nullptr) continue;
    for (size_t j = 0; j < regions.size(); ++j) {
      if (i == j) continue;
      const auto stored = config.StoredRelation(regions[i].id, regions[j].id);
      ASSERT_TRUE(stored.has_value()) << i << " vs " << j;
      EXPECT_EQ(stored->mask(), store->Relation(i, j).mask())
          << i << " vs " << j;
    }
  }
}

TEST(ConfigurationTest, LookupsFollowIndexShiftAfterRemoveRegion) {
  for (const bool computed : {false, true}) {
    SCOPED_TRACE(computed ? "computed" : "records");
    Configuration config;
    for (int i = 0; i < 6; ++i) {
      std::string id = "r";
      id += std::to_string(i);
      ASSERT_TRUE(config
                      .AddRegion(MakeRegion(id, "red", i * 20.0, i * 3.0,
                                            i * 20.0 + 25, i * 3.0 + 10))
                      .ok());
    }
    if (computed) {
      ASSERT_TRUE(config.ComputeAllRelations().ok());
    }
    // The argument aliases the removed region's own id string.
    ASSERT_TRUE(config.RemoveRegion(config.regions()[1].id).ok());
    EXPECT_EQ(config.FindRegion("r1"), nullptr);
    EXPECT_EQ(config.RemoveRegion("r1").code(), StatusCode::kNotFound);
    ASSERT_EQ(config.regions().size(), 5u);
    EXPECT_EQ(config.regions()[1].id, "r2");
    ExpectLookupsFollowPositions(config);

    // Grow a shifted region, re-add the removed id (it appends), remove
    // the first region so every index shifts again.
    ASSERT_TRUE(
        config.AddPolygonToRegion("r4", MakeRectangle(0, 40, 5, 45)).ok());
    EXPECT_EQ(config.FindRegion("r4")->geometry.polygons().size(), 2u);
    ASSERT_TRUE(config.AddRegion(MakeRegion("r1", "blue", 5, 5, 9, 9)).ok());
    EXPECT_EQ(config.FindRegion("r1"), &config.regions().back());
    ASSERT_TRUE(config.RemoveRegion("r0").ok());
    ExpectLookupsFollowPositions(config);
    if (computed) ExpectMatchesRecompute(config);
  }
}

// RemoveRegion renumbers the id index only from the erased position on,
// so remove at the head, the middle and the tail and check every surviving
// id's lookup and stored relations after each.
TEST(ConfigurationTest, RemoveAtHeadMiddleAndTailKeepsEveryLookup) {
  for (const bool computed : {false, true}) {
    SCOPED_TRACE(computed ? "computed" : "records");
    Configuration config;
    for (int i = 0; i < 9; ++i) {
      std::string id = "r";
      id += std::to_string(i);
      // Overlapping staircase: most pairs cross on an axis.
      ASSERT_TRUE(config
                      .AddRegion(MakeRegion(id, "red", i * 7.0, i * 5.0,
                                            i * 7.0 + 20, i * 5.0 + 16))
                      .ok());
    }
    if (computed) {
      ASSERT_TRUE(config.ComputeAllRelations().ok());
    }
    for (const std::string removed : {"r0", "r4", "r8"}) {
      SCOPED_TRACE("removed " + removed);
      ASSERT_TRUE(config.RemoveRegion(removed).ok());
      EXPECT_EQ(config.FindRegion(removed), nullptr);
      ExpectLookupsFollowPositions(config);
      if (computed) ExpectMatchesRecompute(config);
    }
    ASSERT_EQ(config.regions().size(), 6u);
    EXPECT_EQ(config.regions().front().id, "r1");
    EXPECT_EQ(config.regions().back().id, "r7");
  }
}

TEST(ConfigurationTest, ComputePercentagesOnDemand) {
  Configuration config;
  ASSERT_TRUE(config.AddRegion(MakeRegion("b", "blue", 0, 0, 10, 10)).ok());
  ASSERT_TRUE(config.AddRegion(MakeRegion("c", "red", 12, 4, 18, 16)).ok());
  auto matrix = config.ComputePercentages("c", "b");
  ASSERT_TRUE(matrix.ok());
  EXPECT_NEAR(matrix->at(Tile::kNE), 50.0, 1e-9);
  EXPECT_NEAR(matrix->at(Tile::kE), 50.0, 1e-9);
  EXPECT_EQ(config.ComputePercentages("c", "missing").status().code(),
            StatusCode::kNotFound);
}

}  // namespace
}  // namespace cardir
