#include "segment/blob.h"

#include <algorithm>
#include <cstdint>
#include <cstring>

#include "common/logging.h"

namespace mivid {

std::vector<Blob> ExtractBlobs(const Mask& mask, const Frame& source,
                               const BlobOptions& options) {
  const int w = source.width(), h = source.height();
  MIVID_CHECK(mask.size() == source.size()) << "mask and frame sizes differ";
  // Per-thread scratch, reused across frames: `open` is the mask with each
  // pixel cleared once it joins a component, `stack` the flood fill's
  // pending pixels.
  struct Pixel {
    int x, y;
  };
  thread_local std::vector<uint8_t> open;
  thread_local std::vector<Pixel> stack;
  open.assign(mask.begin(), mask.end());
  const uint8_t* intensity = source.pixels().data();
  const size_t n = open.size();
  std::vector<Blob> blobs;

  // Seeds in raster order; a component is the same pixel set whichever
  // order it is filled in, and its sums are integers (exact in int64), so
  // the blobs do not depend on the fill order.
  size_t seed = 0;
  for (;;) {
    // Skip cleared pixels eight at a time.
    for (uint64_t word; seed + 8 <= n; seed += 8) {
      std::memcpy(&word, open.data() + seed, sizeof(word));
      if (word != 0) break;
    }
    while (seed < n && open[seed] == 0) ++seed;
    if (seed == n) break;

    // Grow one component (4- or 8-connected).
    open[seed] = 0;
    stack.clear();
    stack.push_back({static_cast<int>(seed % static_cast<size_t>(w)),
                     static_cast<int>(seed / static_cast<size_t>(w))});
    int64_t sum_x = 0, sum_y = 0, sum_i = 0;
    int area = 0;
    int min_x = w, max_x = -1, min_y = h, max_y = -1;
    auto visit = [&](int x, int y) {
      uint8_t& m = open[static_cast<size_t>(y) * static_cast<size_t>(w) +
                        static_cast<size_t>(x)];
      if (m == 0) return;
      m = 0;
      stack.push_back({x, y});
    };
    while (!stack.empty()) {
      const Pixel p = stack.back();
      stack.pop_back();
      ++area;
      sum_x += p.x;
      sum_y += p.y;
      sum_i += intensity[static_cast<size_t>(p.y) * static_cast<size_t>(w) +
                         static_cast<size_t>(p.x)];
      min_x = std::min(min_x, p.x);
      max_x = std::max(max_x, p.x);
      min_y = std::min(min_y, p.y);
      max_y = std::max(max_y, p.y);
      const bool left = p.x > 0, right = p.x + 1 < w;
      const bool up = p.y > 0, down = p.y + 1 < h;
      if (right) visit(p.x + 1, p.y);
      if (left) visit(p.x - 1, p.y);
      if (down) visit(p.x, p.y + 1);
      if (up) visit(p.x, p.y - 1);
      if (options.eight_connected) {
        if (right && down) visit(p.x + 1, p.y + 1);
        if (right && up) visit(p.x + 1, p.y - 1);
        if (left && down) visit(p.x - 1, p.y + 1);
        if (left && up) visit(p.x - 1, p.y - 1);
      }
    }

    if (area < options.min_area || area > options.max_area) continue;
    Blob blob;
    blob.area = area;
    blob.centroid = {static_cast<double>(sum_x) / area,
                     static_cast<double>(sum_y) / area};
    blob.mbr = BBox(min_x, min_y, max_x, max_y);
    blob.mean_intensity = static_cast<double>(sum_i) / area;
    blobs.push_back(blob);
  }
  return blobs;
}

}  // namespace mivid
