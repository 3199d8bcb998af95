// Seeded input generation for the perfbench workloads. Everything here is
// the benchmark's own code (its own RNG, polygon generator and XML writer),
// so the input bytes for a seed do not change when the library does.
#ifndef PERFBENCH_INPUTS_H_
#define PERFBENCH_INPUTS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "geometry/box.h"
#include "geometry/polygon.h"

namespace perfbench {

/// SplitMix64: fully specified, so a seed means the same stream everywhere.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  double Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  double Uniform(double lo, double hi) { return lo + (hi - lo) * Uniform(); }
  /// Uniform in [0, n).
  size_t Index(size_t n) { return static_cast<size_t>(Uniform() * static_cast<double>(n)); }

 private:
  uint64_t state_;
};

/// The shape of one workload's input.
struct Shape {
  std::string workload;
  int regions = 0;
  int polygons_per_region = 1;
  int vertices_per_polygon = 8;
  bool map_layout = true;  ///< Disjoint grid cells; else random overlapping boxes.
};

/// The input shape of `workload` at full or tiny (test) scale; false when
/// the workload is unknown.
bool ShapeFor(const std::string& workload, bool tiny, Shape* shape);

/// Thematic palette, assigned round-robin by region index.
const std::vector<std::string>& Palette();

/// A star-shaped simple polygon with `vertices` vertices inside `bounds`.
cardir::Polygon StarPolygon(Rng& rng, int vertices, const cardir::Box& bounds);

/// The map layout: canvas cell `cell` of a ceil(sqrt(n)) grid, inset 5%.
struct MapGrid {
  explicit MapGrid(int regions);
  cardir::Box CellBounds(int cell) const;
  int grid = 1;
  double cell_w = 1.0;
  double cell_h = 1.0;
};

/// The geometry-only DTD document for `shape` and `seed`.
std::string GenerateInputXml(const Shape& shape, uint64_t seed);

/// The seed of the op stream that drives a workload's session.
inline uint64_t OpSeed(uint64_t seed) { return seed * 0x2545f4914f6cdd1dULL + 17; }

}  // namespace perfbench

#endif  // PERFBENCH_INPUTS_H_
