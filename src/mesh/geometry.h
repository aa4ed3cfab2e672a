// Sensor field geometry: deterministic 2-D sensor layouts and the small
// vector algebra the fusion/localization stages share. Positions are in
// meters on a plane centered at the origin; the WiFi attacker sits at an
// arbitrary point inside (or outside) the field.
#pragma once

#include <cstddef>
#include <string_view>
#include <vector>

namespace ctc::mesh {

struct Vec2 {
  double x = 0.0;
  double y = 0.0;
};

/// Euclidean distance between two points (m).
double distance(const Vec2& a, const Vec2& b);

enum class GeometryKind {
  grid,  ///< square lattice spanning [-extent/2, extent/2]^2, row-major
  ring,  ///< circle of radius `extent` centered at the origin
};

/// Parses "grid" / "ring"; throws std::invalid_argument otherwise.
GeometryKind parse_geometry(std::string_view name);

/// `count` sensors on the smallest square lattice that holds them: side =
/// ceil(sqrt(count)) points per axis, evenly spaced over
/// [-extent/2, extent/2], row-major (x fastest), first `count` kept. A
/// single sensor sits at the origin. Requires count >= 1, extent > 0.
std::vector<Vec2> grid_layout(std::size_t count, double extent_m);

/// `count` sensors evenly spaced on the circle of radius `radius_m`,
/// starting at angle 0, counter-clockwise. Requires count >= 1, radius > 0.
std::vector<Vec2> ring_layout(std::size_t count, double radius_m);

/// Layout dispatch: `extent_m` is the grid span for grids and the radius
/// for rings.
std::vector<Vec2> make_layout(GeometryKind kind, std::size_t count,
                              double extent_m);

}  // namespace ctc::mesh
