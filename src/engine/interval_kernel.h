// Interval-classification kernel shared by the sweep join, the relation
// store and the delta engine.
//
// The paper's §4 observation: the cardinal direction relation between two
// bounding boxes factors into two independent 1-D interval relations — the
// x-projections and the y-projections. Each axis of a primary's mbb is
// classified against the two reference lines of that axis into one of four
// *interval classes*
//
//   kLow   — entirely on the low side   (hi <= m1;  West resp. South)
//   kMid   — inside the band            (m1 <= lo and hi <= m2)
//   kHigh  — entirely on the high side  (lo >= m2;  East resp. North)
//   kCross — properly straddles a line  (not box-resolvable)
//
// with the same inclusive boundary semantics as engine/prefilter.h, so a
// (x class, y class) pair with neither class kCross determines the 9-tile
// relation by table lookup — `ClassPairRelationTable()[code]` — and a pair
// with a kCross class is exactly a pair whose mbb properly crosses a
// reference line (or involves a degenerate box).
//
// The boxes live in a struct-of-arrays `RegionProfile` (one contiguous
// double array per bound); `RegionProfile::ClassPairCode` is the one O(1)
// scalar classification every consumer runs. The class-pair table is
// proven against core/tile.h's TileAt at compile time (static_asserts in
// interval_kernel.cc); `ValidateClassKernelOnce` keeps a runtime sweep of
// ClassPairCode against `MbbPrefilterRelation` as a debug-only cross-check
// (audit builds and tests); `IntervalClassOfAllen` bridges the classes to
// the Allen interval algebra of reasoning/interval_algebra.h (each class is
// a coarsening of a block of Allen relations).

#ifndef CARDIR_ENGINE_INTERVAL_KERNEL_H_
#define CARDIR_ENGINE_INTERVAL_KERNEL_H_

#include <array>
#include <cstdint>
#include <vector>

#include "core/cardinal_relation.h"
#include "geometry/box.h"
#include "reasoning/interval_algebra.h"
#include "util/status.h"

namespace cardir {

/// Position of a primary interval relative to the reference band [m1, m2].
enum class IntervalClass : uint8_t {
  kLow = 0,    ///< hi <= m1 — West (x axis) / South (y axis).
  kMid = 1,    ///< m1 <= lo and hi <= m2 — the middle band.
  kHigh = 2,   ///< lo >= m2 — East (x axis) / North (y axis).
  kCross = 3,  ///< Properly straddles m1 or m2 (or degenerate input).
};

/// Scalar classification of one axis: the extent [lo, hi] against the
/// reference band [m1, m2]. Degenerate extents (lo == hi) and degenerate
/// bands (m1 == m2) are the caller's problem — RegionProfile routes them to
/// kCross with `cross_override`.
IntervalClass ClassifyIntervalClass(double lo, double hi, double m1,
                                    double m2);

/// Struct-of-arrays bounding-box profile of an engine run's regions.
/// `cross_override[i]` is 0b1111 when box i is empty or degenerate (zero
/// width/height) — OR-ing it into the class code forces both axes to
/// kCross, routing the pair to the full algorithm, the same bail-out
/// MbbPrefilterRelation takes.
struct RegionProfile {
  std::vector<double> min_x, max_x, min_y, max_y;
  std::vector<uint8_t> cross_override;

  size_t size() const { return min_x.size(); }

  /// Box i's profiled bounds (its degenerate flag lives in cross_override).
  Box BoxAt(size_t i) const {
    return Box(min_x[i], min_y[i], max_x[i], max_y[i]);
  }

  /// The class-pair code of (primary i, reference j): (x class << 2) |
  /// y class with both degenerate-box overrides OR-ed in. Every implicit
  /// relation the engine stores or recomputes comes from this one formula.
  uint8_t ClassPairCode(size_t i, size_t j) const {
    const uint8_t cx = static_cast<uint8_t>(
        ClassifyIntervalClass(min_x[i], max_x[i], min_x[j], max_x[j]));
    const uint8_t cy = static_cast<uint8_t>(
        ClassifyIntervalClass(min_y[i], max_y[i], min_y[j], max_y[j]));
    return static_cast<uint8_t>(static_cast<uint8_t>(cx << 2 | cy) |
                                cross_override[i] | cross_override[j]);
  }

  static RegionProfile FromBoxes(const std::vector<Box>& boxes);
};

/// Packs two axis classes into a 4-bit code: (x class << 2) | y class.
inline constexpr uint8_t kNumClassPairCodes = 16;

/// Relation-mask lookup by class-pair code: the 9-bit CardinalRelation mask
/// of the single tile at (column = x class, row = y class), or 0 when either
/// class is kCross (pair not box-resolvable). Built from core/tile.h's
/// TileAt as a constexpr table, never transcribed by hand, and proven
/// against TileAt in both orientations by static_assert (see the
/// compile-time table proofs in interval_kernel.cc) — divergence is a build
/// break, not a startup abort.
const std::array<uint16_t, kNumClassPairCodes>& ClassPairRelationTable();

/// The same table as ready-made CardinalRelation values (the empty relation
/// — IsEmpty() — for non-resolvable codes), so store reads return table
/// entries directly instead of re-checking the mask through
/// CardinalRelation::FromMask per pair.
const std::array<CardinalRelation, kNumClassPairCodes>& ClassPairRelations();

/// The interval class that Allen relation `r` between a primary interval
/// and the reference band coarsens to: {before, meets} → kLow, {during,
/// starts, finishes, equals} → kMid, {metBy, after} → kHigh, and the five
/// relations straddling an endpoint (overlaps, finishedBy, contains,
/// startedBy, overlappedBy) → kCross.
IntervalClass IntervalClassOfAllen(AllenRelation r);

/// Cross-checks RegionProfile::ClassPairCode plus the relation table — the
/// path the sweep join and the store run — against MbbPrefilterRelation
/// on a box grid with touching, corner-sharing, nested, identical and
/// degenerate boxes (every box as the primary against every 7th box as the
/// reference), and checks the
/// Allen coarsening on the non-degenerate pairs. Runs the sweep once per
/// process (subsequent calls return the cached status). Since the table is
/// proven against TileAt at compile time (static_asserts in
/// interval_kernel.cc), this runtime sweep is a debug-only cross-check: the
/// sweep join runs it only in audit builds (CARDIR_AUDIT=ON); tests call it
/// directly.
Status ValidateClassKernelOnce();

}  // namespace cardir

#endif  // CARDIR_ENGINE_INTERVAL_KERNEL_H_
