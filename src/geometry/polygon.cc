#include "geometry/polygon.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace c2mn {

void BoundingBox::Extend(const Vec2& p) {
  min.x = std::min(min.x, p.x);
  min.y = std::min(min.y, p.y);
  max.x = std::max(max.x, p.x);
  max.y = std::max(max.y, p.y);
}

void BoundingBox::Extend(const BoundingBox& other) {
  Extend(other.min);
  Extend(other.max);
}

bool BoundingBox::Contains(const Vec2& p) const {
  return p.x >= min.x && p.x <= max.x && p.y >= min.y && p.y <= max.y;
}

bool BoundingBox::Intersects(const BoundingBox& other) const {
  return min.x <= other.max.x && max.x >= other.min.x &&
         min.y <= other.max.y && max.y >= other.min.y;
}

double BoundingBox::Distance(const Vec2& p) const {
  const double dx = std::max({min.x - p.x, 0.0, p.x - max.x});
  const double dy = std::max({min.y - p.y, 0.0, p.y - max.y});
  return std::hypot(dx, dy);
}


double BoundingBox::Area() const {
  if (max.x < min.x || max.y < min.y) return 0.0;
  return (max.x - min.x) * (max.y - min.y);
}

double SignedArea(const std::vector<Vec2>& ring) {
  double a = 0.0;
  const size_t n = ring.size();
  for (size_t i = 0; i < n; ++i) {
    const Vec2& p = ring[i];
    const Vec2& q = ring[(i + 1) % n];
    a += Cross(p, q);
  }
  return 0.5 * a;
}

Polygon::Polygon(std::vector<Vec2> vertices) : vertices_(std::move(vertices)) {
  assert(vertices_.size() >= 3);
  double signed_area = SignedArea(vertices_);
  if (signed_area < 0) {
    std::reverse(vertices_.begin(), vertices_.end());
    signed_area = -signed_area;
  }
  area_ = signed_area;
  // Centroid of a simple polygon.
  double cx = 0.0, cy = 0.0;
  const size_t n = vertices_.size();
  for (size_t i = 0; i < n; ++i) {
    const Vec2& p = vertices_[i];
    const Vec2& q = vertices_[(i + 1) % n];
    const double w = Cross(p, q);
    cx += (p.x + q.x) * w;
    cy += (p.y + q.y) * w;
  }
  if (area_ > 1e-12) {
    centroid_ = {cx / (6.0 * area_), cy / (6.0 * area_)};
  } else {
    for (const Vec2& v : vertices_) centroid_ = centroid_ + v;
    centroid_ = centroid_ / static_cast<double>(n);
  }
  for (const Vec2& v : vertices_) bbox_.Extend(v);
  // Four distinct bbox corners joined by axis-parallel edges.
  is_box_ = n == 4 && bbox_.min.x < bbox_.max.x && bbox_.min.y < bbox_.max.y;
  for (size_t i = 0; is_box_ && i < n; ++i) {
    const Vec2& v = vertices_[i];
    const Vec2& w = vertices_[(i + 1) % n];
    is_box_ = (v.x == bbox_.min.x || v.x == bbox_.max.x) &&
              (v.y == bbox_.min.y || v.y == bbox_.max.y) &&
              ((v.x == w.x) != (v.y == w.y));
  }
}

Polygon Polygon::Rectangle(const Vec2& min, const Vec2& max) {
  assert(min.x < max.x && min.y < max.y);
  return Polygon({{min.x, min.y}, {max.x, min.y}, {max.x, max.y},
                  {min.x, max.y}});
}

namespace {

/// The point of segment [a, b] nearest to `p`.
Vec2 NearestOnSegment(const Vec2& p, const Vec2& a, const Vec2& b) {
  const Vec2 ab = b - a;
  const double len2 = ab.SquaredNorm();
  if (len2 < 1e-18) return a;
  const double t = std::clamp(Dot(p - a, ab) / len2, 0.0, 1.0);
  return a + ab * t;
}

/// The one edge pass behind Polygon::Distance() and SquaredDistance():
/// containment (boundary within `boundary_tolerance` counts as inside,
/// Contains()'s rule) and the minimum of `edge_metric(p, a, b)` over the
/// edges of `ring`.
template <typename EdgeMetric>
double InsideOrMinEdge(const std::vector<Vec2>& ring, const BoundingBox& bbox,
                       const Vec2& p, EdgeMetric edge_metric,
                       double boundary_tolerance) {
  // Containment is only tested inside the bbox, exactly as Contains()
  // does: a point a hair outside the bbox keeps its tiny edge distance.
  const bool in_box = bbox.Contains(p);
  bool inside = false;
  double best = 1e300;
  const size_t n = ring.size();
  for (size_t i = 0, j = n - 1; i < n; j = i++) {
    const Vec2& a = ring[i];
    const Vec2& b = ring[j];
    const double d = edge_metric(p, a, b);
    if (in_box) {
      if (d < boundary_tolerance) return 0.0;
      if ((a.y > p.y) != (b.y > p.y)) {
        const double x_int = (b.x - a.x) * (p.y - a.y) / (b.y - a.y) + a.x;
        if (p.x < x_int) inside = !inside;
      }
    }
    best = std::min(best, d);
  }
  return inside ? 0.0 : best;
}

}  // namespace

bool Polygon::Contains(const Vec2& p) const {
  // Boundary (within 1e-9) counts as inside; outside the bbox nothing is.
  return bbox_.Contains(p) && Distance(p) == 0.0;
}

double Polygon::Distance(const Vec2& p) const {
  return InsideOrMinEdge(
      vertices_, bbox_, p,
      [](const Vec2& q, const Vec2& a, const Vec2& b) {
        return PointSegmentDistance(q, a, b);
      },
      1e-9);
}

double Polygon::SquaredDistance(const Vec2& p) const {
  if (is_box_) return bbox_.SquaredDistance(p);
  return InsideOrMinEdge(
      vertices_, bbox_, p,
      [](const Vec2& q, const Vec2& a, const Vec2& b) {
        return PointSegmentSquaredDistance(q, a, b);
      },
      1e-18);
}

double PointSegmentDistance(const Vec2& p, const Vec2& a, const Vec2& b) {
  return Distance(p, NearestOnSegment(p, a, b));
}

double PointSegmentSquaredDistance(const Vec2& p, const Vec2& a,
                                   const Vec2& b) {
  return (p - NearestOnSegment(p, a, b)).SquaredNorm();
}

}  // namespace c2mn
