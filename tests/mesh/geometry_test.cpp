#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "dsp/require.h"
#include "mesh/geometry.h"

namespace ctc::mesh {
namespace {

TEST(GeometryTest, DistanceIsEuclidean) {
  EXPECT_DOUBLE_EQ(distance({0.0, 0.0}, {3.0, 4.0}), 5.0);
  EXPECT_DOUBLE_EQ(distance({-1.0, -1.0}, {-1.0, -1.0}), 0.0);
}

TEST(GeometryTest, ParseAndNameRoundTrip) {
  EXPECT_EQ(parse_geometry("grid"), GeometryKind::grid);
  EXPECT_EQ(parse_geometry("ring"), GeometryKind::ring);
  EXPECT_THROW(parse_geometry("hexagon"), std::invalid_argument);
}

TEST(GeometryTest, FourSensorGridIsTheSquareCorners) {
  const auto points = grid_layout(4, 8.0);
  ASSERT_EQ(points.size(), 4u);
  // Row-major, x fastest, spanning [-4, 4] on both axes.
  EXPECT_DOUBLE_EQ(points[0].x, -4.0);
  EXPECT_DOUBLE_EQ(points[0].y, -4.0);
  EXPECT_DOUBLE_EQ(points[1].x, 4.0);
  EXPECT_DOUBLE_EQ(points[1].y, -4.0);
  EXPECT_DOUBLE_EQ(points[2].x, -4.0);
  EXPECT_DOUBLE_EQ(points[2].y, 4.0);
  EXPECT_DOUBLE_EQ(points[3].x, 4.0);
  EXPECT_DOUBLE_EQ(points[3].y, 4.0);
}

TEST(GeometryTest, NonSquareCountKeepsTheFirstRowMajorPoints) {
  // 3 sensors on a 2x2 lattice: the fourth corner is dropped.
  const auto points = grid_layout(3, 8.0);
  ASSERT_EQ(points.size(), 3u);
  EXPECT_DOUBLE_EQ(points[2].x, -4.0);
  EXPECT_DOUBLE_EQ(points[2].y, 4.0);
}

TEST(GeometryTest, SingleSensorGridSitsAtTheOrigin) {
  const auto points = grid_layout(1, 8.0);
  ASSERT_EQ(points.size(), 1u);
  EXPECT_DOUBLE_EQ(points[0].x, 0.0);
  EXPECT_DOUBLE_EQ(points[0].y, 0.0);
}

TEST(GeometryTest, RingIsEvenlySpacedCounterClockwise) {
  const auto points = ring_layout(4, 2.0);
  ASSERT_EQ(points.size(), 4u);
  EXPECT_NEAR(points[0].x, 2.0, 1e-12);
  EXPECT_NEAR(points[0].y, 0.0, 1e-12);
  EXPECT_NEAR(points[1].x, 0.0, 1e-12);
  EXPECT_NEAR(points[1].y, 2.0, 1e-12);
  EXPECT_NEAR(points[2].x, -2.0, 1e-12);
  EXPECT_NEAR(points[3].y, -2.0, 1e-12);
  for (const Vec2& p : points) {
    EXPECT_NEAR(std::hypot(p.x, p.y), 2.0, 1e-12);
  }
}

TEST(GeometryTest, MakeLayoutDispatchesOnKind) {
  EXPECT_EQ(make_layout(GeometryKind::grid, 9, 8.0).size(), 9u);
  EXPECT_EQ(make_layout(GeometryKind::ring, 9, 8.0).size(), 9u);
  EXPECT_THROW(make_layout(GeometryKind::grid, 0, 8.0), ContractError);
  EXPECT_THROW(make_layout(GeometryKind::ring, 4, 0.0), ContractError);
}

}  // namespace
}  // namespace ctc::mesh
