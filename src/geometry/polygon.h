#ifndef C2MN_GEOMETRY_POLYGON_H_
#define C2MN_GEOMETRY_POLYGON_H_

#include <algorithm>
#include <vector>

#include "geometry/vec2.h"

namespace c2mn {

/// \brief Axis-aligned bounding box.
struct BoundingBox {
  Vec2 min{1e300, 1e300};
  Vec2 max{-1e300, -1e300};

  /// Grows the box to cover `p`.
  void Extend(const Vec2& p);
  /// Grows the box to cover `other`.
  void Extend(const BoundingBox& other);
  bool Contains(const Vec2& p) const;
  bool Intersects(const BoundingBox& other) const;
  /// Minimum distance from `p` to the box (0 when inside).
  double Distance(const Vec2& p) const;
  /// Distance(p) squared, without the square root: the key of the R-tree's
  /// best-first traversal and of the f_sm disk reject.  Inline: the
  /// traversal computes one per queued child.
  double SquaredDistance(const Vec2& p) const {
    const double dx = std::max({min.x - p.x, 0.0, p.x - max.x});
    const double dy = std::max({min.y - p.y, 0.0, p.y - max.y});
    return dx * dx + dy * dy;
  }
  double Area() const;
  Vec2 Center() const { return (min + max) * 0.5; }
};

/// \brief A simple polygon (no self-intersections) with CCW orientation.
///
/// Indoor partitions and semantic-region footprints are polygons.  The
/// building generator only emits rectangles, but the geometry layer supports
/// arbitrary simple polygons so real floorplans can be loaded.
class Polygon {
 public:
  Polygon() = default;
  /// Constructs from vertices; re-orients to CCW if needed.
  explicit Polygon(std::vector<Vec2> vertices);

  /// Convenience factory for an axis-aligned rectangle.
  static Polygon Rectangle(const Vec2& min, const Vec2& max);

  const std::vector<Vec2>& vertices() const { return vertices_; }
  size_t size() const { return vertices_.size(); }
  bool empty() const { return vertices_.empty(); }

  /// Signed area is positive because vertices are CCW.
  double Area() const { return area_; }
  const BoundingBox& bbox() const { return bbox_; }
  Vec2 Centroid() const { return centroid_; }

  /// Even-odd (ray casting) point containment; boundary counts as inside.
  bool Contains(const Vec2& p) const;

  /// Minimum Euclidean distance from `p` to the polygon (0 when inside).
  double Distance(const Vec2& p) const;

  /// Squared minimum distance from `p` to the polygon (0 when inside),
  /// with no square root: one pass over the edges tests containment and
  /// takes the squared edge minimum together, and an axis-aligned
  /// rectangle (every generated partition) is just its bbox.  Orders
  /// points as Distance() does; nearest-region search keys on it.
  double SquaredDistance(const Vec2& p) const;

 private:
  std::vector<Vec2> vertices_;
  double area_ = 0.0;
  Vec2 centroid_;
  BoundingBox bbox_;
  /// Whether the polygon is an axis-aligned rectangle, i.e. its own bbox.
  bool is_box_ = false;
};

/// Signed area of the polygon ring (positive = CCW).
double SignedArea(const std::vector<Vec2>& ring);

/// Distance from point `p` to segment [a, b].
double PointSegmentDistance(const Vec2& p, const Vec2& a, const Vec2& b);

/// PointSegmentDistance squared, computed without the square root.
double PointSegmentSquaredDistance(const Vec2& p, const Vec2& a,
                                   const Vec2& b);

}  // namespace c2mn

#endif  // C2MN_GEOMETRY_POLYGON_H_
