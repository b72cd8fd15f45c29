#include "geometry/polygon.h"

#include <cmath>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace c2mn {
namespace {

TEST(BoundingBoxTest, ExtendAndContains) {
  BoundingBox box;
  box.Extend({1, 2});
  box.Extend({3, -1});
  EXPECT_TRUE(box.Contains({2, 0}));
  EXPECT_FALSE(box.Contains({4, 0}));
  EXPECT_DOUBLE_EQ(box.Area(), 2.0 * 3.0);
}

TEST(BoundingBoxTest, IntersectsAndDistance) {
  BoundingBox a;
  a.Extend({0, 0});
  a.Extend({2, 2});
  BoundingBox b;
  b.Extend({1, 1});
  b.Extend({3, 3});
  EXPECT_TRUE(a.Intersects(b));
  BoundingBox c;
  c.Extend({5, 0});
  c.Extend({6, 1});
  EXPECT_FALSE(a.Intersects(c));
  EXPECT_DOUBLE_EQ(a.Distance({3, 0}), 1.0);
  EXPECT_DOUBLE_EQ(a.Distance({1, 1}), 0.0);
  EXPECT_DOUBLE_EQ(a.Distance({3, 3}), std::sqrt(2.0));
}

TEST(PolygonTest, RectangleAreaAndCentroid) {
  const Polygon rect = Polygon::Rectangle({0, 0}, {4, 2});
  EXPECT_DOUBLE_EQ(rect.Area(), 8.0);
  EXPECT_DOUBLE_EQ(rect.Centroid().x, 2.0);
  EXPECT_DOUBLE_EQ(rect.Centroid().y, 1.0);
}

TEST(PolygonTest, OrientationNormalizedToCcw) {
  // Clockwise input gets reversed; area stays positive.
  const Polygon p({{0, 0}, {0, 2}, {2, 2}, {2, 0}});
  EXPECT_DOUBLE_EQ(p.Area(), 4.0);
  EXPECT_GT(SignedArea(p.vertices()), 0.0);
}

TEST(PolygonTest, ContainsInteriorBoundaryExterior) {
  const Polygon rect = Polygon::Rectangle({0, 0}, {4, 2});
  EXPECT_TRUE(rect.Contains({2, 1}));
  EXPECT_TRUE(rect.Contains({0, 0}));   // Corner.
  EXPECT_TRUE(rect.Contains({2, 0}));   // Edge.
  EXPECT_FALSE(rect.Contains({5, 1}));
  EXPECT_FALSE(rect.Contains({2, 3}));
}

TEST(PolygonTest, NonConvexContains) {
  // L-shaped polygon.
  const Polygon l({{0, 0}, {4, 0}, {4, 2}, {2, 2}, {2, 4}, {0, 4}});
  EXPECT_TRUE(l.Contains({1, 3}));
  EXPECT_TRUE(l.Contains({3, 1}));
  EXPECT_FALSE(l.Contains({3, 3}));
  EXPECT_DOUBLE_EQ(l.Area(), 12.0);
}

TEST(PolygonTest, DistanceOutside) {
  const Polygon rect = Polygon::Rectangle({0, 0}, {4, 2});
  EXPECT_DOUBLE_EQ(rect.Distance({6, 1}), 2.0);
  EXPECT_DOUBLE_EQ(rect.Distance({2, 1}), 0.0);
  EXPECT_NEAR(rect.Distance({5, 3}), std::sqrt(2.0), 1e-12);
}

TEST(PolygonTest, SquaredDistanceIsDistanceSquared) {
  // A rectangle answers from its bbox; the L-shape (and a rotated square)
  // take the one-pass edge scan.  Both must agree with Distance()^2, with
  // containment and the boundary included.
  const Polygon rect = Polygon::Rectangle({0, 0}, {4, 2});
  const Polygon l({{0, 0}, {4, 0}, {4, 2}, {2, 2}, {2, 4}, {0, 4}});
  const Polygon diamond({{2, 0}, {4, 2}, {2, 4}, {0, 2}});
  Rng rng(5);
  for (const Polygon* poly : {&rect, &l, &diamond}) {
    EXPECT_EQ(poly->SquaredDistance(poly->vertices()[1]), 0.0);
    for (int q = 0; q < 500; ++q) {
      const Vec2 p{rng.Uniform(-3, 7), rng.Uniform(-3, 7)};
      const double d = poly->Distance(p);
      EXPECT_NEAR(poly->SquaredDistance(p), d * d, 1e-12 * (1 + d * d));
      EXPECT_EQ(poly->SquaredDistance(p) == 0.0, poly->Contains(p));
    }
  }
  EXPECT_EQ(l.SquaredDistance({3, 3}), 1.0);  // The notch of the L.
  EXPECT_EQ(rect.SquaredDistance({7, 6}), 25.0);
  EXPECT_EQ(rect.bbox().SquaredDistance({7, 6}), 25.0);
}

TEST(PointSegmentDistanceTest, Cases) {
  EXPECT_DOUBLE_EQ(PointSegmentDistance({0, 1}, {-1, 0}, {1, 0}), 1.0);
  EXPECT_DOUBLE_EQ(PointSegmentDistance({3, 0}, {-1, 0}, {1, 0}), 2.0);
  EXPECT_DOUBLE_EQ(PointSegmentDistance({0, 0}, {0, 0}, {0, 0}), 0.0);
  EXPECT_DOUBLE_EQ(PointSegmentSquaredDistance({3, 1}, {-1, 0}, {1, 0}), 5.0);
}

TEST(Vec2Test, Arithmetic) {
  const Vec2 a{1, 2}, b{3, -1};
  EXPECT_EQ((a + b), Vec2(4, 1));
  EXPECT_EQ((a - b), Vec2(-2, 3));
  EXPECT_EQ((a * 2.0), Vec2(2, 4));
  EXPECT_DOUBLE_EQ(Dot(a, b), 1.0);
  EXPECT_DOUBLE_EQ(Cross(a, b), -7.0);
  EXPECT_DOUBLE_EQ(Distance(a, b), std::sqrt(4.0 + 9.0));
}

/// Property sweep: random rectangles — centroid inside, sampled points
/// classified consistently with coordinates.
class RectangleProperty : public ::testing::TestWithParam<int> {};

TEST_P(RectangleProperty, ContainsMatchesCoordinates) {
  Rng rng(GetParam() * 977 + 1);
  const double x0 = rng.Uniform(-50, 50), y0 = rng.Uniform(-50, 50);
  const double w = rng.Uniform(0.5, 30), h = rng.Uniform(0.5, 30);
  const Polygon rect = Polygon::Rectangle({x0, y0}, {x0 + w, y0 + h});
  EXPECT_NEAR(rect.Area(), w * h, 1e-9);
  EXPECT_TRUE(rect.Contains(rect.Centroid()));
  for (int i = 0; i < 50; ++i) {
    const Vec2 p{rng.Uniform(x0 - 10, x0 + w + 10),
                 rng.Uniform(y0 - 10, y0 + h + 10)};
    const bool expected =
        p.x >= x0 && p.x <= x0 + w && p.y >= y0 && p.y <= y0 + h;
    EXPECT_EQ(rect.Contains(p), expected) << p.x << "," << p.y;
  }
}

INSTANTIATE_TEST_SUITE_P(RandomRects, RectangleProperty,
                         ::testing::Range(0, 20));

}  // namespace
}  // namespace c2mn
