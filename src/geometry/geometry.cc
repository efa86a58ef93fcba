#include "geometry/geometry.h"

#include "common/string_util.h"

namespace mivid {

std::string Point2::ToString() const {
  return StrFormat("(%.2f, %.2f)", x, y);
}

double Distance(const Point2& a, const Point2& b) { return (a - b).Norm(); }

double AngleBetween(const Vec2& a, const Vec2& b) {
  const double na = a.Norm(), nb = b.Norm();
  if (na <= 0.0 || nb <= 0.0) return 0.0;
  double c = a.Dot(b) / (na * nb);
  c = std::clamp(c, -1.0, 1.0);
  return std::acos(c);
}

double BBox::IoU(const BBox& o) const {
  const double ix = std::max(0.0, std::min(max_x, o.max_x) -
                                      std::max(min_x, o.min_x));
  const double iy = std::max(0.0, std::min(max_y, o.max_y) -
                                      std::max(min_y, o.min_y));
  const double inter = ix * iy;
  const double uni = Area() + o.Area() - inter;
  return uni > 0 ? inter / uni : 0.0;
}

BBox BBox::Union(const BBox& o) const {
  return {std::min(min_x, o.min_x), std::min(min_y, o.min_y),
          std::max(max_x, o.max_x), std::max(max_y, o.max_y)};
}

std::string BBox::ToString() const {
  return StrFormat("[%.1f,%.1f - %.1f,%.1f]", min_x, min_y, max_x, max_y);
}

}  // namespace mivid
