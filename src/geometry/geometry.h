// 2-D geometry primitives: points, vectors, bounding boxes, angles.
//
// The tracker reports vehicle positions as centroids of Minimal Bounding
// Rectangles (paper Fig. 1); the event model (Sec. 4) needs motion vectors
// and the absolute angle between consecutive motion vectors (Fig. 3).

#ifndef MIVID_GEOMETRY_GEOMETRY_H_
#define MIVID_GEOMETRY_GEOMETRY_H_

#include <algorithm>
#include <cmath>
#include <string>

namespace mivid {

/// A point / vector in the image or world plane.
struct Point2 {
  double x = 0.0;
  double y = 0.0;

  Point2() = default;
  Point2(double px, double py) : x(px), y(py) {}

  Point2 operator+(const Point2& o) const { return {x + o.x, y + o.y}; }
  Point2 operator-(const Point2& o) const { return {x - o.x, y - o.y}; }
  Point2 operator*(double s) const { return {x * s, y * s}; }
  bool operator==(const Point2& o) const { return x == o.x && y == o.y; }

  double Dot(const Point2& o) const { return x * o.x + y * o.y; }
  double Cross(const Point2& o) const { return x * o.y - y * o.x; }
  double Norm() const { return std::hypot(x, y); }
  double SquaredNorm() const { return x * x + y * y; }

  /// Unit vector; returns (0,0) for the zero vector.
  Point2 Normalized() const {
    const double n = Norm();
    return n > 0 ? Point2{x / n, y / n} : Point2{};
  }

  std::string ToString() const;
};

/// Alias emphasizing vector (displacement) semantics, e.g. motion vectors.
using Vec2 = Point2;

/// Euclidean distance between two points.
double Distance(const Point2& a, const Point2& b);

/// Absolute angle in radians between two vectors, in [0, pi].
/// Zero vectors yield 0 (no direction change observable).
double AngleBetween(const Vec2& a, const Vec2& b);

/// Axis-aligned bounding box (the paper's Minimal Bounding Rectangle).
struct BBox {
  double min_x = 0.0;
  double min_y = 0.0;
  double max_x = 0.0;
  double max_y = 0.0;

  BBox() = default;
  BBox(double x0, double y0, double x1, double y1)
      : min_x(x0), min_y(y0), max_x(x1), max_y(y1) {}

  double Width() const { return max_x - min_x; }
  double Height() const { return max_y - min_y; }
  double Area() const { return std::max(0.0, Width()) * std::max(0.0, Height()); }
  Point2 Center() const { return {(min_x + max_x) / 2, (min_y + max_y) / 2}; }

  bool Contains(const Point2& p) const {
    return p.x >= min_x && p.x <= max_x && p.y >= min_y && p.y <= max_y;
  }

  bool Intersects(const BBox& o) const {
    return min_x <= o.max_x && o.min_x <= max_x && min_y <= o.max_y &&
           o.min_y <= max_y;
  }

  /// Intersection-over-union; 0 when disjoint.
  double IoU(const BBox& o) const;

  /// Smallest box containing both.
  BBox Union(const BBox& o) const;

  /// Grows the box by `margin` on every side.
  BBox Inflated(double margin) const {
    return {min_x - margin, min_y - margin, max_x + margin, max_y + margin};
  }

  std::string ToString() const;
};

}  // namespace mivid

#endif  // MIVID_GEOMETRY_GEOMETRY_H_
