#include "core/compute_cdr_percent.h"

#include <cmath>

#include "audit/audit.h"
#include "audit/invariants.h"
#include "core/compute_cdr.h"
#include "core/edge_soa.h"
#include "core/edge_splitter.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "util/logging.h"
#include "util/target_clones.h"

namespace cardir {
namespace {

// Signed accumulators, one per tile plus the combined B+N term (Fig. 10),
// and the locally aggregated instrumentation.
struct SignedSums {
  std::array<double, kNumTiles> signed_sum{};
  double signed_b_plus_n = 0.0;
  // Sum of |term| over the terms of signed_b_plus_n and of the N tile: the
  // scale of the rounding error left when a_B = |a_{B+N}| − |a_N| cancels.
  double b_plus_n_magnitude = 0.0;
  size_t input_edges = 0;
  size_t split_edges = 0;
  size_t trapezoid_terms = 0;
};

// Sub-edge codes of the tiles each accumulation pass selects on.
inline constexpr uint8_t kCodeSW = SubEdgeCode(TileColumn::kWest, TileRow::kSouth);
inline constexpr uint8_t kCodeW = SubEdgeCode(TileColumn::kWest, TileRow::kMiddle);
inline constexpr uint8_t kCodeNW = SubEdgeCode(TileColumn::kWest, TileRow::kNorth);
inline constexpr uint8_t kCodeSE = SubEdgeCode(TileColumn::kEast, TileRow::kSouth);
inline constexpr uint8_t kCodeE = SubEdgeCode(TileColumn::kEast, TileRow::kMiddle);
inline constexpr uint8_t kCodeNE = SubEdgeCode(TileColumn::kEast, TileRow::kNorth);
inline constexpr uint8_t kCodeS = SubEdgeCode(TileColumn::kMiddle, TileRow::kSouth);
inline constexpr uint8_t kCodeB = SubEdgeCode(TileColumn::kMiddle, TileRow::kMiddle);
inline constexpr uint8_t kCodeN = SubEdgeCode(TileColumn::kMiddle, TileRow::kNorth);

// Per-tile SIMD accumulation over one polygon's classified lanes: three
// masked passes (west column against E'_{m1}, east column against E'_{m2},
// middle column against E_{l1}/E_{l2}), each carrying explicit 4-wide
// partial accumulators so the reduction vectorizes without the compiler
// having to reassociate strict FP itself. The reassociation (4 partial
// sums per tile instead of one running sum) changes the rounding of the
// per-tile totals relative to the scalar reference path by O(n·ulp); the
// exact-rational oracle tier (tests/properties/exact_cdr_oracle_test.cc)
// bounds both paths against ground truth.
CARDIR_KERNEL_CLONES
void AccumulateTrapezoidsSoA(const EdgeSoA& soa, double m1, double m2,
                             double l1, double l2, SignedSums* sums) {
  const size_t n = soa.count;
  const double* x0 = soa.x0.data();
  const double* y0 = soa.y0.data();
  const double* x1 = soa.x1.data();
  const double* y1 = soa.y1.data();
  const uint8_t* codes = soa.code.data();

  auto run_pass = [&](auto&& term, uint8_t c0, uint8_t c1, uint8_t c2,
                      double* out0, double* out1, double* out2) {
    double acc0[4] = {0, 0, 0, 0};
    double acc1[4] = {0, 0, 0, 0};
    double acc2[4] = {0, 0, 0, 0};
    size_t i = 0;
    for (; i + 4 <= n; i += 4) {
      for (size_t lane = 0; lane < 4; ++lane) {
        const size_t k = i + lane;
        const double t = term(k);
        const uint8_t c = codes[k];
        acc0[lane] += (c == c0) ? t : 0.0;
        acc1[lane] += (c == c1) ? t : 0.0;
        acc2[lane] += (c == c2) ? t : 0.0;
      }
    }
    for (; i < n; ++i) {
      const double t = term(i);
      const uint8_t c = codes[i];
      acc0[0] += (c == c0) ? t : 0.0;
      acc1[0] += (c == c1) ? t : 0.0;
      acc2[0] += (c == c2) ? t : 0.0;
    }
    *out0 += (acc0[0] + acc0[1]) + (acc0[2] + acc0[3]);
    *out1 += (acc1[0] + acc1[1]) + (acc1[2] + acc1[3]);
    *out2 += (acc2[0] + acc2[1]) + (acc2[2] + acc2[3]);
  };

  std::array<double, kNumTiles>& s = sums->signed_sum;
  // West column: E'_{m1} (Def. 4) for NW, W, SW.
  run_pass([&](size_t k) {
    return 0.5 * (y1[k] - y0[k]) * (x0[k] + x1[k] - 2.0 * m1);
  }, kCodeNW, kCodeW, kCodeSW, &s[static_cast<int>(Tile::kNW)],
           &s[static_cast<int>(Tile::kW)], &s[static_cast<int>(Tile::kSW)]);
  // East column: E'_{m2} for NE, E, SE.
  run_pass([&](size_t k) {
    return 0.5 * (y1[k] - y0[k]) * (x0[k] + x1[k] - 2.0 * m2);
  }, kCodeNE, kCodeE, kCodeSE, &s[static_cast<int>(Tile::kNE)],
           &s[static_cast<int>(Tile::kE)], &s[static_cast<int>(Tile::kSE)]);
  // Middle column: E_{l1} for S and for the combined B+N accumulator
  // (edges lying in B or N), E_{l2} for N. Folded into one pass computing
  // both horizontal terms per lane.
  {
    double acc_s[4] = {0, 0, 0, 0};
    double acc_n[4] = {0, 0, 0, 0};
    double acc_bn[4] = {0, 0, 0, 0};
    double acc_mag[4] = {0, 0, 0, 0};
    size_t count_n = 0;
    size_t i = 0;
    for (; i + 4 <= n; i += 4) {
      for (size_t lane = 0; lane < 4; ++lane) {
        const size_t k = i + lane;
        const double dx = x1[k] - x0[k];
        const double sy = y0[k] + y1[k];
        const double th1 = 0.5 * dx * (sy - 2.0 * l1);
        const double th2 = 0.5 * dx * (sy - 2.0 * l2);
        const uint8_t c = codes[k];
        acc_s[lane] += (c == kCodeS) ? th1 : 0.0;
        acc_n[lane] += (c == kCodeN) ? th2 : 0.0;
        acc_bn[lane] += (c == kCodeN || c == kCodeB) ? th1 : 0.0;
        acc_mag[lane] += (c == kCodeN) ? std::abs(th1) + std::abs(th2)
                         : (c == kCodeB) ? std::abs(th1)
                                         : 0.0;
        count_n += (c == kCodeN) ? 1u : 0u;
      }
    }
    for (; i < n; ++i) {
      const double dx = x1[i] - x0[i];
      const double sy = y0[i] + y1[i];
      const double th1 = 0.5 * dx * (sy - 2.0 * l1);
      const double th2 = 0.5 * dx * (sy - 2.0 * l2);
      const uint8_t c = codes[i];
      acc_s[0] += (c == kCodeS) ? th1 : 0.0;
      acc_n[0] += (c == kCodeN) ? th2 : 0.0;
      acc_bn[0] += (c == kCodeN || c == kCodeB) ? th1 : 0.0;
      acc_mag[0] += (c == kCodeN) ? std::abs(th1) + std::abs(th2)
                    : (c == kCodeB) ? std::abs(th1)
                                    : 0.0;
      count_n += (c == kCodeN) ? 1u : 0u;
    }
    s[static_cast<int>(Tile::kS)] += (acc_s[0] + acc_s[1]) + (acc_s[2] + acc_s[3]);
    s[static_cast<int>(Tile::kN)] += (acc_n[0] + acc_n[1]) + (acc_n[2] + acc_n[3]);
    sums->signed_b_plus_n += (acc_bn[0] + acc_bn[1]) + (acc_bn[2] + acc_bn[3]);
    sums->b_plus_n_magnitude +=
        (acc_mag[0] + acc_mag[1]) + (acc_mag[2] + acc_mag[3]);
    // A piece contributes one term unless it lies in B, plus one more for
    // the B+N accumulator when it lies in B or N — which telescopes to
    // lanes + |{N lanes}| (the B lanes swap their skipped private term for
    // their B+N term).
    sums->trapezoid_terms += n + count_n;
  }
}

// Shared epilogue: a_B derivation, per-tile absolute areas, matrix build,
// metric flush and audit seams. `primary` is only read under CARDIR_AUDIT.
CdrPercentComputation FinalizeSums(const SignedSums& sums,
                                   const Region& primary) {
  CARDIR_METRIC_COUNT("core.percent.runs", 1);
  CARDIR_METRIC_COUNT("core.edges.input", sums.input_edges);
  CARDIR_METRIC_COUNT("core.edges.split", sums.split_edges);
  CARDIR_METRIC_COUNT("core.percent.trapezoid_terms", sums.trapezoid_terms);

  CdrPercentComputation result;
  for (Tile t : kAllTiles) {
    result.tile_areas[static_cast<int>(t)] =
        std::abs(sums.signed_sum[static_cast<int>(t)]);
  }
  // a_B = |a_{B+N}| − |a_N|. When a barely (or never) enters B the two
  // accumulators are near-equal, leaving a cancellation residue of either
  // sign whose size follows the *terms* summed, not the totals: a thin N
  // sliver far from l1 sums large trapezoids to a small area. Treating
  // anything within floating-point noise of those terms as exact zero
  // keeps measure-zero B contacts from surfacing as a spurious positive
  // percentage.
  const double area_n = result.tile_areas[static_cast<int>(Tile::kN)];
  const double area_b = std::abs(sums.signed_b_plus_n) - area_n;
  const double noise = 1e-12 * sums.b_plus_n_magnitude;
  result.tile_areas[static_cast<int>(Tile::kB)] =
      area_b <= noise ? 0.0 : area_b;

  for (double area : result.tile_areas) result.total_area += area;
  result.matrix = PercentageMatrix::FromAreas(result.tile_areas);

  // Audit seam: the accumulated tile areas must reproduce the region's
  // shoelace area, the matrix must be a valid percentage distribution, and
  // Definition 4's trapezoid totals must telescope per ring.
  if constexpr (kAuditEnabled) {
    CARDIR_AUDIT(AuditTileAreasMatchRegion(result.tile_areas,
                                           result.total_area, primary));
    CARDIR_AUDIT(AuditPercentMatrix(result.matrix));
    for (const Polygon& polygon : primary.polygons()) {
      CARDIR_AUDIT(AuditTrapezoidTotals(polygon));
    }
  }
  return result;
}

}  // namespace

CdrPercentComputation ComputeCdrPercentUnchecked(const Region& primary,
                                                 const Box& reference_mbb,
                                                 CdrScratch* scratch) {
  const Box& mbb = reference_mbb;
  CARDIR_DCHECK(!mbb.IsEmpty());
  CARDIR_DCHECK(scratch != nullptr);
  CARDIR_PROFILE_FRAME("cdr.compute_percent");

  SignedSums sums;
  EdgeSoA& soa = scratch->soa;
  for (const Polygon& polygon : primary.polygons()) {
    sums.input_edges += polygon.size();
    soa.Clear();
    sums.split_edges += AppendSplitClassifySoA(polygon, mbb, &soa).pieces;
    AccumulateTrapezoidsSoA(soa, mbb.min_x(), mbb.max_x(), mbb.min_y(),
                            mbb.max_y(), &sums);
  }
  return FinalizeSums(sums, primary);
}

CdrPercentComputation ComputeCdrPercentUnchecked(const Region& primary,
                                                 const Region& reference) {
  // Same rationale as the qualitative convenience overload: one grow-only
  // scratch per thread instead of five allocations per call.
  thread_local CdrScratch scratch;
  return ComputeCdrPercentUnchecked(primary, reference.BoundingBox(),
                                    &scratch);
}

CdrPercentComputation ComputeCdrPercentScalar(const Region& primary,
                                              const Region& reference) {
  const Box mbb = reference.BoundingBox();
  CARDIR_DCHECK(!mbb.IsEmpty());
  const double m1 = mbb.min_x();
  const double m2 = mbb.max_x();
  const double l1 = mbb.min_y();
  const double l2 = mbb.max_y();

  SignedSums sums;
  std::vector<ClassifiedEdge> pieces;
  for (const Polygon& polygon : primary.polygons()) {
    sums.input_edges += polygon.size();
    for (size_t i = 0; i < polygon.size(); ++i) {
      pieces.clear();
      sums.split_edges += static_cast<size_t>(
          SplitAndClassifyEdge(polygon.edge(i), mbb, &pieces));
      for (const ClassifiedEdge& piece : pieces) {
        const Segment& s = piece.segment;
        if (piece.tile != Tile::kB) ++sums.trapezoid_terms;
        switch (piece.tile) {
          case Tile::kNW:
          case Tile::kW:
          case Tile::kSW:
            sums.signed_sum[static_cast<int>(piece.tile)] +=
                TrapezoidVertical(s, m1);
            break;
          case Tile::kNE:
          case Tile::kE:
          case Tile::kSE:
            sums.signed_sum[static_cast<int>(piece.tile)] +=
                TrapezoidVertical(s, m2);
            break;
          case Tile::kS:
            sums.signed_sum[static_cast<int>(Tile::kS)] +=
                TrapezoidHorizontal(s, l1);
            break;
          case Tile::kN: {
            const double term = TrapezoidHorizontal(s, l2);
            sums.signed_sum[static_cast<int>(Tile::kN)] += term;
            sums.b_plus_n_magnitude += std::abs(term);
            break;
          }
          case Tile::kB:
            // B has no private reference line; only the B+N accumulator
            // below sees its edges.
            break;
        }
        if (piece.tile == Tile::kN || piece.tile == Tile::kB) {
          const double term = TrapezoidHorizontal(s, l1);
          sums.signed_b_plus_n += term;
          sums.b_plus_n_magnitude += std::abs(term);
          ++sums.trapezoid_terms;
        }
      }
    }
  }
  return FinalizeSums(sums, primary);
}

Result<CdrPercentComputation> ComputeCdrPercentDetailed(
    const Region& primary, const Region& reference) {
  CARDIR_RETURN_IF_ERROR(primary.Validate());
  CARDIR_RETURN_IF_ERROR(reference.Validate());
  CdrPercentComputation computation =
      ComputeCdrPercentUnchecked(primary, reference);
  // Audit seam: tiles holding a positive share of a's area must be tiles
  // of the qualitative Compute-CDR relation (§3.2 refines §3.1).
  if constexpr (kAuditEnabled) {
    CARDIR_AUDIT(AuditQualQuantAgreement(
        ComputeCdrUnchecked(primary, reference).relation, computation.matrix));
  }
  return computation;
}

Result<PercentageMatrix> ComputeCdrPercent(const Region& primary,
                                           const Region& reference) {
  CARDIR_ASSIGN_OR_RETURN(CdrPercentComputation computation,
                          ComputeCdrPercentDetailed(primary, reference));
  return computation.matrix;
}

}  // namespace cardir
