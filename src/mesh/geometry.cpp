#include "mesh/geometry.h"

#include <cmath>
#include <stdexcept>
#include <string>

#include "dsp/require.h"
#include "dsp/types.h"

namespace ctc::mesh {

double distance(const Vec2& a, const Vec2& b) {
  return std::hypot(a.x - b.x, a.y - b.y);
}

GeometryKind parse_geometry(std::string_view name) {
  if (name == "grid") return GeometryKind::grid;
  if (name == "ring") return GeometryKind::ring;
  throw std::invalid_argument("unknown mesh geometry '" + std::string(name) +
                              "' (expected \"grid\" or \"ring\")");
}

std::vector<Vec2> grid_layout(std::size_t count, double extent_m) {
  CTC_REQUIRE(count >= 1);
  CTC_REQUIRE(extent_m > 0.0);
  const std::size_t side = static_cast<std::size_t>(
      std::ceil(std::sqrt(static_cast<double>(count))));
  std::vector<Vec2> positions;
  positions.reserve(count);
  const double half = extent_m / 2.0;
  for (std::size_t row = 0; row < side && positions.size() < count; ++row) {
    for (std::size_t col = 0; col < side && positions.size() < count; ++col) {
      Vec2 p;
      if (side == 1) {
        p = Vec2{0.0, 0.0};
      } else {
        const double step = extent_m / static_cast<double>(side - 1);
        p.x = -half + static_cast<double>(col) * step;
        p.y = -half + static_cast<double>(row) * step;
      }
      positions.push_back(p);
    }
  }
  return positions;
}

std::vector<Vec2> ring_layout(std::size_t count, double radius_m) {
  CTC_REQUIRE(count >= 1);
  CTC_REQUIRE(radius_m > 0.0);
  std::vector<Vec2> positions;
  positions.reserve(count);
  for (std::size_t k = 0; k < count; ++k) {
    const double angle =
        kTwoPi * static_cast<double>(k) / static_cast<double>(count);
    positions.push_back(
        Vec2{radius_m * std::cos(angle), radius_m * std::sin(angle)});
  }
  return positions;
}

std::vector<Vec2> make_layout(GeometryKind kind, std::size_t count,
                              double extent_m) {
  return kind == GeometryKind::grid ? grid_layout(count, extent_m)
                                    : ring_layout(count, extent_m);
}

}  // namespace ctc::mesh
