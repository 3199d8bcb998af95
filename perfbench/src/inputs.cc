#include "inputs.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numbers>

namespace perfbench {

using cardir::Box;
using cardir::Point;
using cardir::Polygon;

bool ShapeFor(const std::string& workload, bool tiny, Shape* shape) {
  shape->workload = workload;
  if (workload == "persist") {
    // n = 500: one save-and-reopen cycle takes about a second, so a run
    // holds several cycles; the saved document has n(n-1) relations.
    shape->regions = tiny ? 40 : 500;
  } else if (workload == "overlap") {
    shape->regions = tiny ? 120 : 3000;
    shape->polygons_per_region = 2;
    shape->vertices_per_polygon = 32;
    shape->map_layout = false;
  } else if (workload == "browse") {
    shape->regions = tiny ? 64 : 1000;
  } else if (workload == "edit") {
    // 20k regions: the fresh store (~9 MB) outgrows a core's L2.
    shape->regions = tiny ? 400 : 20000;
  } else {
    return false;
  }
  return true;
}

const std::vector<std::string>& Palette() {
  static const std::vector<std::string> palette = {"red", "blue", "green",
                                                   "black"};
  return palette;
}

Polygon StarPolygon(Rng& rng, int vertices, const Box& bounds) {
  const Point center = bounds.Center();
  const double max_radius = 0.5 * std::min(bounds.width(), bounds.height());
  std::vector<double> gaps(static_cast<size_t>(vertices));
  double total = 0.0;
  for (double& gap : gaps) {
    gap = 0.05 + rng.Uniform();
    total += gap;
  }
  std::vector<Point> ring;
  ring.reserve(gaps.size());
  double angle = rng.Uniform(0.0, 2.0 * std::numbers::pi);
  for (double gap : gaps) {
    angle += gap / total * 2.0 * std::numbers::pi;
    const double radius = max_radius * rng.Uniform(0.35, 1.0);
    ring.emplace_back(center.x + radius * std::cos(angle),
                      center.y + radius * std::sin(angle));
  }
  return Polygon(std::move(ring));
}

MapGrid::MapGrid(int regions)
    : grid(static_cast<int>(std::ceil(std::sqrt(static_cast<double>(regions))))),
      cell_w(1000.0 / grid),
      cell_h(1000.0 / grid) {}

Box MapGrid::CellBounds(int cell) const {
  const int cx = cell % grid;
  const int cy = cell / grid;
  return Box(cx * cell_w + 0.05 * cell_w, cy * cell_h + 0.05 * cell_h,
             (cx + 1) * cell_w - 0.05 * cell_w, (cy + 1) * cell_h - 0.05 * cell_h);
}

namespace {

// Splits `box` across its longer side into two halves with a small gap, so
// a region's polygons have disjoint interiors.
std::vector<Box> SplitBox(const Box& box, int parts) {
  std::vector<Box> out;
  const bool along_x = box.width() >= box.height();
  const double length = along_x ? box.width() : box.height();
  const double step = length / parts;
  for (int k = 0; k < parts; ++k) {
    const double lo = k * step + 0.02 * step;
    const double hi = (k + 1) * step - 0.02 * step;
    out.push_back(along_x ? Box(box.min_x() + lo, box.min_y(),
                                box.min_x() + hi, box.max_y())
                          : Box(box.min_x(), box.min_y() + lo, box.max_x(),
                                box.min_y() + hi));
  }
  return out;
}

void AppendCoordinate(std::string* out, double value) {
  char buffer[40];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  *out += buffer;
}

}  // namespace

std::string GenerateInputXml(const Shape& shape, uint64_t seed) {
  uint64_t name_hash = 0xcbf29ce484222325ULL;  // FNV-1a of the workload name
  for (char c : shape.workload) {
    name_hash = (name_hash ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
  }
  Rng rng(seed ^ name_hash);
  const MapGrid grid(shape.regions);
  std::string xml = "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n";
  xml += "<Image name=\"perfbench-" + shape.workload + "\" file=\"" +
         shape.workload + ".png\">\n";
  for (int i = 0; i < shape.regions; ++i) {
    Box bounds;
    if (shape.map_layout) {
      bounds = grid.CellBounds(i);
    } else {
      const double w = rng.Uniform(40.0, 160.0);
      const double h = rng.Uniform(40.0, 160.0);
      const double x = rng.Uniform(0.0, 1000.0 - w);
      const double y = rng.Uniform(0.0, 1000.0 - h);
      bounds = Box(x, y, x + w, y + h);
    }
    const std::string id = std::string("r").append(std::to_string(i));
    xml += "  <Region id=\"" + id + "\" name=\"Region " + std::to_string(i) +
           "\" color=\"" + Palette()[static_cast<size_t>(i) % Palette().size()] +
           "\">\n";
    const std::vector<Box> parts = SplitBox(bounds, shape.polygons_per_region);
    for (size_t p = 0; p < parts.size(); ++p) {
      const Polygon polygon =
          StarPolygon(rng, shape.vertices_per_polygon, parts[p]);
      xml += "    <Polygon id=\"" + id + "-p" + std::to_string(p) + "\">\n";
      for (const Point& vertex : polygon.vertices()) {
        xml += "      <Edge x=\"";
        AppendCoordinate(&xml, vertex.x);
        xml += "\" y=\"";
        AppendCoordinate(&xml, vertex.y);
        xml += "\"/>\n";
      }
      xml += "    </Polygon>\n";
    }
    xml += "  </Region>\n";
  }
  xml += "</Image>\n";
  return xml;
}

}  // namespace perfbench
