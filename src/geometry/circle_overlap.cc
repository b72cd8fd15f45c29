#include "geometry/circle_overlap.h"

#include <algorithm>
#include <cmath>

namespace c2mn {
namespace {

/// Signed area of the intersection of triangle (origin, a, b) with the
/// disk of radius r centered at the origin.
double TriangleDiskArea(Vec2 a, Vec2 b, double r) {
  const double r2 = r * r;

  auto sector_area = [&](const Vec2& p, const Vec2& q) {
    // Signed sector spanned from direction p to direction q.
    const double angle = std::atan2(Cross(p, q), Dot(p, q));
    return 0.5 * r2 * angle;
  };
  auto triangle_area = [](const Vec2& p, const Vec2& q) {
    return 0.5 * Cross(p, q);
  };

  // Find intersection parameters of segment a + t*(b-a) with the circle.
  const Vec2 d = b - a;
  const double A = d.SquaredNorm();
  if (A < 1e-24) return 0.0;
  const double B = 2.0 * Dot(a, d);
  const double C = a.SquaredNorm() - r2;
  const double disc = B * B - 4.0 * A * C;

  // At most four breakpoints: 0, the (ordered) circle hits t1 <= t2, 1.
  // Appending the in-range hits between the endpoints keeps the list
  // sorted without touching the heap on this innermost geometry call.
  double ts[4];
  size_t nts = 0;
  ts[nts++] = 0.0;
  if (disc > 0.0) {
    const double sq = std::sqrt(disc);
    const double t1 = (-B - sq) / (2.0 * A);
    const double t2 = (-B + sq) / (2.0 * A);
    if (t1 > 0.0 && t1 < 1.0) ts[nts++] = t1;
    if (t2 > 0.0 && t2 < 1.0) ts[nts++] = t2;
  }
  ts[nts++] = 1.0;

  double area = 0.0;
  for (size_t i = 0; i + 1 < nts; ++i) {
    const Vec2 p = a + d * ts[i];
    const Vec2 q = a + d * ts[i + 1];
    const Vec2 mid = (p + q) * 0.5;
    if (mid.SquaredNorm() <= r2) {
      area += triangle_area(p, q);
    } else {
      area += sector_area(p, q);
    }
  }
  return area;
}

}  // namespace

double CirclePolygonIntersectionArea(const Vec2& center, double radius,
                                      const Polygon& polygon) {
  if (radius <= 0.0 || polygon.empty()) return 0.0;
  // Quick reject: disk outside the polygon's bounding box (bbox distance
  // >= radius).  Squared distances decide it; only inside their rounding
  // band around r^2 does the hypot comparison break the tie, so the
  // reject set is exactly the hypot test's.
  const double d2 = polygon.bbox().SquaredDistance(center);
  const double r2 = radius * radius;
  if (d2 > r2 * (1.0 + 1e-12)) return 0.0;
  if (d2 >= r2 * (1.0 - 1e-12) && polygon.bbox().Distance(center) >= radius) {
    return 0.0;
  }
  const auto& vs = polygon.vertices();
  const size_t n = vs.size();
  double area = 0.0;
  // Edge (vs[i], vs[i + 1]), wrapping at the end without a modulo.
  for (size_t i = 0; i < n; ++i) {
    const Vec2 a = vs[i] - center;
    const Vec2 b = vs[i + 1 < n ? i + 1 : 0] - center;
    area += TriangleDiskArea(a, b, radius);
  }
  // CCW polygons give a positive sum; clamp tiny negative rounding noise.
  return std::max(0.0, area);
}

double CircleCoverageFraction(const Vec2& center, double radius,
                              const Polygon& polygon) {
  if (radius <= 0.0) return 0.0;
  const double disk = M_PI * radius * radius;
  const double inter = CirclePolygonIntersectionArea(center, radius, polygon);
  return std::clamp(inter / disk, 0.0, 1.0);
}

}  // namespace c2mn
