#include "core/cardinal_relation.h"

#include <gtest/gtest.h>

#include <set>

namespace cardir {
namespace {

TEST(CardinalRelationTest, SingleTileConstruction) {
  const CardinalRelation s(Tile::kS);
  EXPECT_TRUE(s.IsSingleTile());
  EXPECT_EQ(s.TileCount(), 1);
  EXPECT_TRUE(s.Includes(Tile::kS));
  EXPECT_FALSE(s.Includes(Tile::kN));
  EXPECT_EQ(s.ToString(), "S");
}

TEST(CardinalRelationTest, CanonicalPrintOrder) {
  // §2: always write B:S:W, never W:B:S or S:B:W.
  const CardinalRelation r({Tile::kW, Tile::kB, Tile::kS});
  EXPECT_EQ(r.ToString(), "B:S:W");
  const CardinalRelation full(
      {Tile::kB, Tile::kS, Tile::kSW, Tile::kW, Tile::kNW, Tile::kN,
       Tile::kNE, Tile::kE, Tile::kSE});
  EXPECT_EQ(full.ToString(), "B:S:SW:W:NW:N:NE:E:SE");
}

TEST(CardinalRelationTest, ParseAcceptsAnyOrder) {
  const auto r = CardinalRelation::Parse("W:B:S");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->ToString(), "B:S:W");
  EXPECT_EQ(*CardinalRelation::Parse(" NE : E "),
            CardinalRelation({Tile::kNE, Tile::kE}));
}

TEST(CardinalRelationTest, ParseRejectsBadInput) {
  EXPECT_FALSE(CardinalRelation::Parse("").ok());
  EXPECT_FALSE(CardinalRelation::Parse("X").ok());
  EXPECT_FALSE(CardinalRelation::Parse("B:B").ok());      // Duplicate tile.
  EXPECT_FALSE(CardinalRelation::Parse("B::S").ok());     // Empty piece.
  EXPECT_FALSE(CardinalRelation::Parse("B:").ok());       // Empty last piece.
  EXPECT_FALSE(CardinalRelation::Parse(":B").ok());       // Empty first piece.
  EXPECT_FALSE(CardinalRelation::Parse(":").ok());
  EXPECT_FALSE(CardinalRelation::Parse("north").ok());
}

TEST(CardinalRelationTest, TileUnionDefinitionTwo) {
  // Paper's example: tile-union(S:SW, S:E:SE) = S:SW:E:SE and
  // tile-union(S:SW, S:E:SE, W) = S:SW:W:E:SE.
  const CardinalRelation r1 = *CardinalRelation::Parse("S:SW");
  const CardinalRelation r2 = *CardinalRelation::Parse("S:E:SE");
  const CardinalRelation r3 = *CardinalRelation::Parse("W");
  EXPECT_EQ(TileUnion({r1, r2}).ToString(), "S:SW:E:SE");
  EXPECT_EQ(TileUnion({r1, r2, r3}).ToString(), "S:SW:W:E:SE");
}

TEST(CardinalRelationTest, SetOperations) {
  const CardinalRelation a = *CardinalRelation::Parse("B:S");
  const CardinalRelation b = *CardinalRelation::Parse("S:W");
  EXPECT_EQ(a.Union(b).ToString(), "B:S:W");
  EXPECT_EQ(a.Intersection(b).ToString(), "S");
  EXPECT_TRUE(CardinalRelation(Tile::kS).IsSubsetOf(a));
  EXPECT_FALSE(a.IsSubsetOf(b));
}

TEST(CardinalRelationTest, AddRemove) {
  CardinalRelation r;
  EXPECT_TRUE(r.IsEmpty());
  r.Add(Tile::kN);
  r.Add(Tile::kNE);
  EXPECT_EQ(r.ToString(), "N:NE");
  r.Remove(Tile::kN);
  EXPECT_EQ(r.ToString(), "NE");
  r.Remove(Tile::kN);  // Removing an absent tile is a no-op.
  EXPECT_EQ(r.ToString(), "NE");
}

TEST(CardinalRelationTest, ThereAre511BasicRelations) {
  // D* is jointly exhaustive: 2^9 − 1 distinct non-empty relations.
  std::set<CardinalRelation> all;
  for (uint16_t mask = 1; mask <= 511; ++mask) {
    all.insert(CardinalRelation::FromMask(mask));
  }
  EXPECT_EQ(all.size(), static_cast<size_t>(kNumBasicRelations));
}

TEST(CardinalRelationTest, MatrixRenderingMatchesPaperExamples) {
  // §2 shows S, NE:E and B:S:SW:W:NW:N:E:SE as direction-relation matrices.
  EXPECT_EQ(CardinalRelation(Tile::kS).ToMatrixString(),
            "[. . .]\n[. . .]\n[. # .]");
  EXPECT_EQ(CardinalRelation({Tile::kNE, Tile::kE}).ToMatrixString(),
            "[. . #]\n[. . #]\n[. . .]");
  EXPECT_EQ(
      CardinalRelation::Parse("B:S:SW:W:NW:N:E:SE")->ToMatrixString(),
      "[# # .]\n[# # #]\n[# # #]");
}

TEST(CardinalRelationTest, ParseToStringRoundTripAll511) {
  for (uint16_t mask = 1; mask <= 511; ++mask) {
    const CardinalRelation r = CardinalRelation::FromMask(mask);
    const auto parsed = CardinalRelation::Parse(r.ToString());
    ASSERT_TRUE(parsed.ok()) << r.ToString();
    EXPECT_EQ(*parsed, r);
  }
}

}  // namespace
}  // namespace cardir
