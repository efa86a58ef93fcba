// Tests for geometry/: points, angles, bounding boxes.

#include <cmath>

#include <gtest/gtest.h>

#include "geometry/geometry.h"

namespace mivid {
namespace {

TEST(Point2Test, Arithmetic) {
  const Point2 a{1, 2}, b{3, 5};
  EXPECT_EQ(a + b, Point2(4, 7));
  EXPECT_EQ(b - a, Point2(2, 3));
  EXPECT_EQ(a * 2.0, Point2(2, 4));
  EXPECT_DOUBLE_EQ(a.Dot(b), 13.0);
  EXPECT_DOUBLE_EQ(a.Cross(b), -1.0);
}

TEST(Point2Test, NormAndNormalize) {
  EXPECT_DOUBLE_EQ(Point2(3, 4).Norm(), 5.0);
  EXPECT_DOUBLE_EQ(Point2(3, 4).SquaredNorm(), 25.0);
  const Point2 u = Point2(0, 7).Normalized();
  EXPECT_DOUBLE_EQ(u.x, 0.0);
  EXPECT_DOUBLE_EQ(u.y, 1.0);
  EXPECT_EQ(Point2(0, 0).Normalized(), Point2(0, 0));
}

TEST(DistanceTest, Euclidean) {
  EXPECT_DOUBLE_EQ(Distance({0, 0}, {3, 4}), 5.0);
  EXPECT_DOUBLE_EQ(Distance({1, 1}, {1, 1}), 0.0);
}

TEST(AngleBetweenTest, CardinalCases) {
  EXPECT_NEAR(AngleBetween({1, 0}, {1, 0}), 0.0, 1e-12);
  EXPECT_NEAR(AngleBetween({1, 0}, {0, 1}), M_PI / 2, 1e-12);
  EXPECT_NEAR(AngleBetween({1, 0}, {-1, 0}), M_PI, 1e-12);
  // Magnitude-invariant.
  EXPECT_NEAR(AngleBetween({10, 0}, {0, 0.1}), M_PI / 2, 1e-12);
}

TEST(AngleBetweenTest, ZeroVectorYieldsZero) {
  EXPECT_DOUBLE_EQ(AngleBetween({0, 0}, {1, 0}), 0.0);
  EXPECT_DOUBLE_EQ(AngleBetween({1, 0}, {0, 0}), 0.0);
}

TEST(AngleBetweenTest, SymmetricAndBounded) {
  const Vec2 a{1.3, -0.2}, b{-0.4, 2.2};
  EXPECT_DOUBLE_EQ(AngleBetween(a, b), AngleBetween(b, a));
  EXPECT_GE(AngleBetween(a, b), 0.0);
  EXPECT_LE(AngleBetween(a, b), M_PI);
}

TEST(BBoxTest, Dimensions) {
  const BBox b(1, 2, 5, 8);
  EXPECT_DOUBLE_EQ(b.Width(), 4.0);
  EXPECT_DOUBLE_EQ(b.Height(), 6.0);
  EXPECT_DOUBLE_EQ(b.Area(), 24.0);
  EXPECT_EQ(b.Center(), Point2(3, 5));
}

TEST(BBoxTest, ContainsAndIntersects) {
  const BBox b(0, 0, 10, 10);
  EXPECT_TRUE(b.Contains({5, 5}));
  EXPECT_TRUE(b.Contains({0, 0}));  // boundary inclusive
  EXPECT_FALSE(b.Contains({11, 5}));
  EXPECT_TRUE(b.Intersects(BBox(5, 5, 15, 15)));
  EXPECT_TRUE(b.Intersects(BBox(10, 10, 20, 20)));  // touching corners
  EXPECT_FALSE(b.Intersects(BBox(11, 11, 20, 20)));
}

TEST(BBoxTest, IoU) {
  const BBox a(0, 0, 10, 10), b(5, 0, 15, 10);
  EXPECT_NEAR(a.IoU(b), 50.0 / 150.0, 1e-12);
  EXPECT_DOUBLE_EQ(a.IoU(a), 1.0);
  EXPECT_DOUBLE_EQ(a.IoU(BBox(20, 20, 30, 30)), 0.0);
}

TEST(BBoxTest, UnionAndInflate) {
  const BBox u = BBox(0, 0, 1, 1).Union(BBox(5, 5, 6, 6));
  EXPECT_DOUBLE_EQ(u.min_x, 0);
  EXPECT_DOUBLE_EQ(u.max_y, 6);
  const BBox inf = BBox(2, 2, 4, 4).Inflated(1);
  EXPECT_DOUBLE_EQ(inf.min_x, 1);
  EXPECT_DOUBLE_EQ(inf.max_x, 5);
}

}  // namespace
}  // namespace mivid
