#include "core/compute_cdr_percent.h"

#include <gtest/gtest.h>

#include <vector>

#include "core/compute_cdr.h"
#include "geometry/region.h"

namespace cardir {
namespace {

constexpr double kTol = 1e-9;

Region ReferenceB() { return Region(MakeRectangle(0, 0, 10, 10)); }

PercentageMatrix Percent(const Region& a, const Region& b) {
  auto result = ComputeCdrPercent(a, b);
  EXPECT_TRUE(result.ok()) << result.status();
  return result.value_or(PercentageMatrix());
}

TEST(ComputeCdrPercentTest, PaperFigure1cFiftyFifty) {
  // §2: "region c is 50% northeast and 50% east of region b".
  const Region c(MakeRectangle(12, 4, 18, 16));
  const PercentageMatrix m = Percent(c, ReferenceB());
  EXPECT_NEAR(m.at(Tile::kNE), 50.0, kTol);
  EXPECT_NEAR(m.at(Tile::kE), 50.0, kTol);
  EXPECT_NEAR(m.Total(), 100.0, kTol);
  for (Tile t : {Tile::kB, Tile::kS, Tile::kSW, Tile::kW, Tile::kNW,
                 Tile::kN, Tile::kSE}) {
    EXPECT_NEAR(m.at(t), 0.0, kTol) << TileName(t);
  }
}

TEST(ComputeCdrPercentTest, FullyContainedIsHundredPercentB) {
  const PercentageMatrix m =
      Percent(Region(MakeRectangle(2, 2, 8, 8)), ReferenceB());
  EXPECT_NEAR(m.at(Tile::kB), 100.0, kTol);
}

TEST(ComputeCdrPercentTest, QuadrantSquareSplitsEvenly) {
  // [−5,5]² against [0,10]²: equal quarters in SW, S, W, B.
  const PercentageMatrix m =
      Percent(Region(MakeRectangle(-5, -5, 5, 5)), ReferenceB());
  EXPECT_NEAR(m.at(Tile::kSW), 25.0, kTol);
  EXPECT_NEAR(m.at(Tile::kS), 25.0, kTol);
  EXPECT_NEAR(m.at(Tile::kW), 25.0, kTol);
  EXPECT_NEAR(m.at(Tile::kB), 25.0, kTol);
}

TEST(ComputeCdrPercentTest, BViaBPlusNSubtraction) {
  // a = [2,8]×[2,14]: area 72, B part 6×8 = 48, N part 6×4 = 24.
  const PercentageMatrix m =
      Percent(Region(MakeRectangle(2, 2, 8, 14)), ReferenceB());
  EXPECT_NEAR(m.at(Tile::kB), 100.0 * 48 / 72, kTol);
  EXPECT_NEAR(m.at(Tile::kN), 100.0 * 24 / 72, kTol);
}

TEST(ComputeCdrPercentTest, TileAreasMatchHandComputedValues) {
  auto result =
      ComputeCdrPercentDetailed(Region(MakeRectangle(-5, -5, 5, 5)),
                                ReferenceB());
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result->tile_areas[static_cast<int>(Tile::kSW)], 25.0, kTol);
  EXPECT_NEAR(result->tile_areas[static_cast<int>(Tile::kB)], 25.0, kTol);
  EXPECT_NEAR(result->total_area, 100.0, kTol);
}

TEST(ComputeCdrPercentTest, TotalAreaEqualsRegionArea) {
  const Region a(Polygon({Point(-5, -3), Point(4, 18), Point(15, 13),
                          Point(12, -6)}));
  auto result = ComputeCdrPercentDetailed(a, ReferenceB());
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result->total_area, a.Area(), 1e-6);
  EXPECT_NEAR(result->matrix.Total(), 100.0, 1e-6);
}

TEST(ComputeCdrPercentTest, SwallowingRegionDistributesOverAllNineTiles) {
  // [−10,20]² over [0,10]²: area 900; B = 100; corners 100 each; bands 100.
  const PercentageMatrix m =
      Percent(Region(MakeRectangle(-10, -10, 20, 20)), ReferenceB());
  for (Tile t : kAllTiles) {
    EXPECT_NEAR(m.at(t), 100.0 / 9.0, kTol) << TileName(t);
  }
}

TEST(ComputeCdrPercentTest, RegionWithHoleFigure2Style) {
  // Frame around [0,10]² with the hole exactly over the mbb: no B area.
  Region frame;
  frame.AddPolygon(MakeRectangle(-10, -10, 20, 0));   // South band: 300.
  frame.AddPolygon(MakeRectangle(-10, 10, 20, 20));   // North band: 300.
  frame.AddPolygon(MakeRectangle(-10, 0, 0, 10));     // West band: 100.
  frame.AddPolygon(MakeRectangle(10, 0, 20, 10));     // East band: 100.
  const PercentageMatrix m = Percent(frame, ReferenceB());
  EXPECT_NEAR(m.at(Tile::kB), 0.0, kTol);
  EXPECT_NEAR(m.at(Tile::kW), 100.0 / 8.0, kTol);
  EXPECT_NEAR(m.at(Tile::kSW), 100.0 / 8.0, kTol);
  EXPECT_NEAR(m.Total(), 100.0, kTol);
}

TEST(ComputeCdrPercentTest, NonZeroTilesMatchQualitativeRelation) {
  const Region a(Polygon({Point(-4, 8), Point(-2, 14), Point(-1, 18),
                          Point(20, 11)}));
  const Region b = ReferenceB();
  const CardinalRelation qualitative = *ComputeCdr(a, b);
  const CardinalRelation from_percent = Percent(a, b).ToRelation(1e-9);
  // Tiles with positive area must agree (no measure-zero tiles here).
  EXPECT_EQ(from_percent, qualitative);
}

TEST(ComputeCdrPercentTest, TriangleAreasAreExact) {
  // Right triangle [0,0],(20,0),(0,20) (clockwise) against [0,10]²:
  // B: area of triangle ∩ [0,10]² = 100 − 0 ... compute: the hypotenuse is
  // x + y = 20, entirely above the box except corner (10,10): B = 100 − 0 =
  // ... the box corner (10,10) lies on x+y=20, so B = full box = 100.
  // S: below y=0: none. E: x∈[10,20], y∈[0,10], x+y≤20: area = 50.
  // N: x∈[0,10], y∈[10,20], x+y≤20: 50. Total = 200 = triangle area. ✓
  Region tri(Polygon({Point(0, 0), Point(0, 20), Point(20, 0)}));
  tri.EnsureClockwise();
  auto result = ComputeCdrPercentDetailed(tri, ReferenceB());
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result->tile_areas[static_cast<int>(Tile::kB)], 100.0, kTol);
  EXPECT_NEAR(result->tile_areas[static_cast<int>(Tile::kE)], 50.0, kTol);
  EXPECT_NEAR(result->tile_areas[static_cast<int>(Tile::kN)], 50.0, kTol);
  EXPECT_NEAR(result->total_area, 200.0, kTol);
}

TEST(ComputeCdrPercentTest, SharedEdgeContributionsCancel) {
  // Two rectangles sharing an edge: the shared edge is traversed twice in
  // opposite directions and its trapezoid contributions must cancel, so the
  // decomposed representation yields the same areas as a single polygon.
  Region decomposed;
  decomposed.AddPolygon(MakeRectangle(-5, -5, 0, 5));  // West half.
  decomposed.AddPolygon(MakeRectangle(0, -5, 5, 5));   // East half.
  const Region whole(MakeRectangle(-5, -5, 5, 5));
  const Region reference(MakeRectangle(0, 0, 10, 10));
  const PercentageMatrix split_matrix = Percent(decomposed, reference);
  const PercentageMatrix whole_matrix = Percent(whole, reference);
  EXPECT_TRUE(split_matrix.ApproxEquals(whole_matrix, 1e-9))
      << "split:\n" << split_matrix << "\nwhole:\n" << whole_matrix;
}

TEST(ComputeCdrPercentTest, SharedEdgeAcrossTileBoundary) {
  // The shared edge lies exactly on the reference's west mbb line: the two
  // halves classify it into different tiles (interior-side rule), but the
  // E'-contributions against that same line are zero, so areas stay exact.
  Region decomposed;
  decomposed.AddPolygon(MakeRectangle(-6, 2, 0, 8));  // Entirely in W.
  decomposed.AddPolygon(MakeRectangle(0, 2, 6, 8));   // Entirely in B.
  const PercentageMatrix matrix =
      Percent(decomposed, Region(MakeRectangle(0, 0, 10, 10)));
  EXPECT_NEAR(matrix.at(Tile::kW), 50.0, 1e-9);
  EXPECT_NEAR(matrix.at(Tile::kB), 50.0, 1e-9);
}

// Regression: a primary wholly outside B must keep exactly 0% in B. Each
// case is one 32-vertex star polygon (from the overlap benchmark's inputs,
// seeds 4 and 5) whose thin N sliver lies far above the reference's l1:
// its B+N trapezoids are large and cancel to a small a_N, and a noise bound
// scaled by the final sums, not the terms, left ~1e-13 in B.
TEST(ComputeCdrPercentTest, NoBResidueWhenThinNSliverSitsFarAboveL1) {
  struct Case {
    std::vector<Point> primary;
    Box reference;
    const char* relation;
  };
  const std::vector<Case> cases = {
      {{
           Point(0x1.15329ea79a76ep+8, 0x1.b9d673652d291p+9),
           Point(0x1.12b2e87e61aefp+8, 0x1.bd5c849f635p+9),
           Point(0x1.10ca6bcb25d56p+8, 0x1.beb8d5090cb0cp+9),
           Point(0x1.0d1390ff1d1aap+8, 0x1.c20fffd0411p+9),
           Point(0x1.08e4131411ecbp+8, 0x1.c1fc74d85473ep+9),
           Point(0x1.030430943ec79p+8, 0x1.bef9537eaf9e2p+9),
           Point(0x1.0739ad0a22591p+8, 0x1.c3a8e781d7877p+9),
           Point(0x1.051cf4aa1a73dp+8, 0x1.c4973009fd7f9p+9),
           Point(0x1.0426dc8e0a8c5p+8, 0x1.c609d5ebbb445p+9),
           Point(0x1.e65bec2bc00c6p+7, 0x1.c80ffb634301p+9),
           Point(0x1.01286d5118579p+8, 0x1.ca49d281510d7p+9),
           Point(0x1.f370716667942p+7, 0x1.cf1534304d627p+9),
           Point(0x1.043d5099b609fp+8, 0x1.cdd086728186cp+9),
           Point(0x1.0101bc2220f6ap+8, 0x1.d3441f7250a07p+9),
           Point(0x1.08e785c899266p+8, 0x1.ce28369235d79p+9),
           Point(0x1.0ae9767adaa21p+8, 0x1.d061ae9ae6c1bp+9),
           Point(0x1.0d0234c6afe25p+8, 0x1.cfd9542e8d25p+9),
           Point(0x1.0f95d9801adap+8, 0x1.cd59b76c46d56p+9),
           Point(0x1.1105f75932c71p+8, 0x1.ce93e98b3b11bp+9),
           Point(0x1.1341863ffb098p+8, 0x1.d361ed314ced4p+9),
           Point(0x1.1708ae3b2ef5ap+8, 0x1.d003e2fba7ca2p+9),
           Point(0x1.1a3fd3cd45deep+8, 0x1.ce4efae14c8e2p+9),
           Point(0x1.1c56bcc20ca96p+8, 0x1.cc36121d93bb7p+9),
           Point(0x1.24dc4feb76739p+8, 0x1.cb501e90f3f0cp+9),
           Point(0x1.1a58ab462848ep+8, 0x1.c89da22522669p+9),
           Point(0x1.1f9b376c6705p+8, 0x1.c8383561a875p+9),
           Point(0x1.28dad7ce410e7p+8, 0x1.c5846d678ebb9p+9),
           Point(0x1.272412773f275p+8, 0x1.c38ff0aa756ep+9),
           Point(0x1.1ef42a686888bp+8, 0x1.c3c0c6cd91dd4p+9),
           Point(0x1.18805da6cb181p+8, 0x1.c4524042c775fp+9),
           Point(0x1.1ed1e8093e591p+8, 0x1.bfee64095e27p+9),
           Point(0x1.1948e9a858a8fp+8, 0x1.be2401c7d2495p+9)
       },
       Box(0x1.37644aee716fdp+7, 0x1.5ac52812b491ap+4, 0x1.e79b4e3dfee6ap+7,
           0x1.ef37824d065b4p+5),
       "N:NE"},
      {{
           Point(0x1.041a8c729d8d1p+9, 0x1.94cc7b319d525p+9),
           Point(0x1.0428db58f0fd3p+9, 0x1.983c9dd7015d2p+9),
           Point(0x1.05454faca053bp+9, 0x1.964f22a64adbp+9),
           Point(0x1.06b5ff66a02eep+9, 0x1.99c9e8e27f9a5p+9),
           Point(0x1.08dca35a2f2cep+9, 0x1.948c90801c358p+9),
           Point(0x1.08d242778a1b6p+9, 0x1.92e75f975bb45p+9),
           Point(0x1.09a79562be80dp+9, 0x1.93631bc44fc22p+9),
           Point(0x1.0b9d80ea03dbp+9, 0x1.9394065be1797p+9),
           Point(0x1.10197fbf23c45p+9, 0x1.96361df9b6cbap+9),
           Point(0x1.0c93c8c45bd6cp+9, 0x1.90d6e3def6fd3p+9),
           Point(0x1.10530876a45f2p+9, 0x1.904d27dee7e97p+9),
           Point(0x1.0f42da84dac1bp+9, 0x1.8dcec67227367p+9),
           Point(0x1.11914991f014fp+9, 0x1.8b125f4549811p+9),
           Point(0x1.0c5d0927e8fdbp+9, 0x1.8c6c1cff49f2fp+9),
           Point(0x1.1113577fea6f2p+9, 0x1.893e984407585p+9),
           Point(0x1.0d6a39ea7f6aap+9, 0x1.8b268505cbae4p+9),
           Point(0x1.0decb5c54e344p+9, 0x1.879362eac70acp+9),
           Point(0x1.0b795fe3f8393p+9, 0x1.867041b1f925dp+9),
           Point(0x1.09c8bbeeb553fp+9, 0x1.8951e4bd687a4p+9),
           Point(0x1.0a3826c566104p+9, 0x1.850d5b060d01fp+9),
           Point(0x1.07e6225f17c4ap+9, 0x1.8945689a52679p+9),
           Point(0x1.069eabbe048aep+9, 0x1.846a2206366b7p+9),
           Point(0x1.05d4492e5f786p+9, 0x1.88338d34eda3ap+9),
           Point(0x1.03aabc4addf13p+9, 0x1.860411b9cddcap+9),
           Point(0x1.003a3276c66c9p+9, 0x1.872e90a6057abp+9),
           Point(0x1.036f9ced9f238p+9, 0x1.8c60c00122889p+9),
           Point(0x1.04736d6ffc617p+9, 0x1.8d5408c794127p+9),
           Point(0x1.015be00527a3ep+9, 0x1.8dd9575cc5c34p+9),
           Point(0x1.03df60f755594p+9, 0x1.8f80634b8e40cp+9),
           Point(0x1.009fd5ffc8802p+9, 0x1.9165b07b28e5dp+9),
           Point(0x1.ffd86c285815cp+8, 0x1.92b3cc8de2a8dp+9),
           Point(0x1.00fb10ac087e9p+9, 0x1.95374827c1568p+9)
       },
       Box(0x1.1190904d38f03p+9, 0x1.261cd50e5b7a7p+8, 0x1.1fdf69e14aeb8p+9,
           0x1.650b9e13d2b2p+8),
       "NW:N"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.relation);
    const Region a{Polygon(c.primary)};
    const Region b(MakeRectangle(c.reference.min_x(), c.reference.min_y(),
                                 c.reference.max_x(), c.reference.max_y()));
    const CardinalRelation relation = *CardinalRelation::Parse(c.relation);
    ASSERT_EQ(*ComputeCdr(a, b), relation);
    EXPECT_EQ(ComputeCdrPercentUnchecked(a, b).tile_areas[0], 0.0);
    EXPECT_EQ(ComputeCdrPercentScalar(a, b).tile_areas[0], 0.0);
    EXPECT_EQ(Percent(a, b).at(Tile::kB), 0.0);
    EXPECT_EQ(Percent(a, b).ToRelation(0.0), relation);
  }
}

TEST(ComputeCdrPercentTest, ValidationErrorsPropagate) {
  EXPECT_FALSE(ComputeCdrPercent(Region(), ReferenceB()).ok());
  EXPECT_FALSE(ComputeCdrPercent(ReferenceB(), Region()).ok());
}

}  // namespace
}  // namespace cardir
