#include "segment/background.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "linalg/simd.h"

namespace mivid {

namespace {

/// Pixels per stripe of UpdateBatch. Fixed, so the decomposition (and
/// with it the output) never depends on the thread count; a stripe's
/// model (32 KiB of doubles) stays cache-resident across the batch. The
/// stripe's quantized sum (< 4096 * 256) fits selective_mean_stripe's
/// uint32.
constexpr size_t kStripePixels = 4096;

bool IsForeground(uint8_t pixel, double mean, double threshold) {
  return std::fabs(pixel - mean) >= threshold;
}

uint8_t Quantize(double mean) {
  return static_cast<uint8_t>(std::clamp(mean, 0.0, 255.0));
}

/// The decisions one frame's update shares across every pixel.
struct FramePlan {
  int seen = 0;          ///< frames observed before this one
  bool ready = false;    ///< Ready() after this frame's update
  int median_slot = -1;  ///< ring slot this frame is sampled into, or -1
  int median_count = 0;  ///< filled ring slots after this frame
};

}  // namespace

BackgroundModel::BackgroundModel(BackgroundOptions options)
    : options_(options) {}

void BackgroundModel::Update(const Frame& frame) {
  const Frame* frames[] = {&frame};
  UpdateBatch(frames);
}

void BackgroundModel::UpdateBatch(std::span<const Frame* const> frames,
                                  std::span<BackgroundObservation* const> out) {
  if (frames.empty()) return;
  MIVID_CHECK(out.empty() || out.size() == frames.size())
      << "one observation per frame";
  const bool median = options_.method == BackgroundMethod::kTemporalMedian;
  const int median_capacity = std::max(3, options_.median_samples);
  if (frames_seen_ == 0) {
    width_ = frames[0]->width();
    height_ = frames[0]->height();
    mean_.assign(frames[0]->size(), 0.0);
    if (median) {
      median_samples_.assign(
          static_cast<size_t>(median_capacity) * mean_.size(), 0);
    }
  }
  const size_t pixels = mean_.size();

  std::vector<FramePlan> plan(frames.size());
  for (size_t k = 0; k < frames.size(); ++k) {
    MIVID_CHECK(frames[k]->width() == width_ &&
                frames[k]->height() == height_)
        << "frame size changed mid-stream";
    FramePlan& p = plan[k];
    p.seen = frames_seen_ + static_cast<int>(k);
    p.ready = p.seen + 1 >= options_.warmup_frames;
    // The median buffers spaced samples. Early on (before the buffer
    // spreads out) every frame is admitted so the model is usable right
    // after warmup. Once full, a sample replaces the oldest; the median
    // does not depend on slot order.
    if (median &&
        (p.seen < options_.warmup_frames ||
         p.seen % std::max(1, options_.median_sample_stride) == 0)) {
      p.median_slot = median_next_;
      median_next_ = (median_next_ + 1) % median_capacity;
      median_count_ = std::min(median_count_ + 1, median_capacity);
    }
    p.median_count = median_count_;
    if (!out.empty()) {
      out[k]->ready = p.ready;
      out[k]->bg_mean = -1.0;
      out[k]->mask.resize(p.ready ? pixels : 0);
    }
  }
  frames_seen_ += static_cast<int>(frames.size());

  const double a = options_.learning_rate;
  const double threshold = options_.diff_threshold;
  const SimdOpsTable& ops = SimdOps();
  // Quantized-background sums per [stripe][frame]; integers, so exact.
  std::vector<uint64_t> sums(
      ParallelChunkCount(pixels, kStripePixels) * frames.size(), 0);
  double* const mean = mean_.data();  // locals: byte stores alias members
  uint8_t* const samples = median_samples_.data();
  ParallelFor(pixels, kStripePixels, [&](size_t begin, size_t end) {
    uint64_t* stripe_sums = &sums[begin / kStripePixels * frames.size()];
    std::vector<uint8_t> column(median ? median_capacity : 0);
    for (size_t k = 0; k < frames.size(); ++k) {
      const FramePlan& p = plan[k];
      const uint8_t* px = frames[k]->pixels().data();
      const bool warmup = p.seen < options_.warmup_frames;
      if (median) {
        if (p.median_slot >= 0) {
          std::copy(px + begin, px + end,
                    samples + p.median_slot * pixels + begin);
          const auto mid = column.begin() + p.median_count / 2;
          for (size_t i = begin; i < end; ++i) {
            for (int s = 0; s < p.median_count; ++s) {
              column[s] = samples[s * pixels + i];
            }
            std::nth_element(column.begin(), mid,
                             column.begin() + p.median_count);
            mean[i] = *mid;
          }
        }
      } else if (warmup) {
        // Running mean during warmup.
        const double n = static_cast<double>(p.seen);
        for (size_t i = begin; i < end; ++i) {
          mean[i] = (mean[i] * n + px[i]) / (n + 1.0);
        }
      }
      // After warmup the selective EMA adapts only where the pixel still
      // looks like background, so stationary vehicles are not absorbed
      // quickly; the same pass writes the mask and the quantized sum.
      const bool observe = !out.empty() && p.ready;
      const uint32_t sum = ops.selective_mean_stripe(
          px + begin, end - begin, a, threshold, !median && !warmup,
          mean + begin, observe ? out[k]->mask.data() + begin : nullptr);
      if (observe) stripe_sums[k] = sum;
    }
  });
  if (out.empty()) return;
  for (size_t k = 0; k < frames.size(); ++k) {
    if (!plan[k].ready) continue;
    uint64_t total = 0;
    for (size_t s = k; s < sums.size(); s += frames.size()) total += sums[s];
    out[k]->bg_mean =
        pixels == 0 ? 0.0
                    : static_cast<double>(total) / static_cast<double>(pixels);
  }
}

Mask BackgroundModel::Subtract(const Frame& frame) const {
  Mask mask(frame.size(), 0);
  for (size_t i = 0; i < mask.size(); ++i) {
    mask[i] = IsForeground(frame.pixels()[i], mean_[i],
                           options_.diff_threshold);
  }
  return mask;
}

Frame BackgroundModel::BackgroundFrame() const {
  Frame f(width_, height_);
  for (size_t i = 0; i < mean_.size(); ++i) f.pixels()[i] = Quantize(mean_[i]);
  return f;
}

namespace {

/// dst[x] = sum of row[x-1 .. x+1] within the row.
void RowTripleSums(const uint8_t* row, size_t width, uint16_t* dst) {
  if (width == 1) {
    dst[0] = row[0];
    return;
  }
  dst[0] = row[0] + row[1];
  for (size_t x = 1; x + 1 < width; ++x) {
    dst[x] = row[x - 1] + row[x] + row[x + 1];
  }
  dst[width - 1] = row[width - 2] + row[width - 1];
}

}  // namespace

Mask CleanMask(const Mask& mask, int width, int height, int iterations) {
  Mask cur = mask;
  const size_t w = width > 0 ? static_cast<size_t>(width) : 0;
  const size_t h = height > 0 && w > 0 ? static_cast<size_t>(height) : 0;
  // The 3x3 count is separable: horizontal 3-sums of the rows above, at
  // and below, added. Three rolling rows of sums; missing rows sum to 0.
  std::vector<uint16_t> rows(3 * w);
  for (int it = 0; it < iterations; ++it) {
    Mask next(cur.size(), 0);
    uint16_t* above = rows.data();
    uint16_t* at = above + w;
    uint16_t* below = at + w;
    std::fill(above, above + w, 0);
    if (h > 0) RowTripleSums(cur.data(), w, at);
    for (size_t y = 0; y < h; ++y) {
      if (y + 1 < h) {
        RowTripleSums(cur.data() + (y + 1) * w, w, below);
      } else {
        std::fill(below, below + w, 0);
      }
      uint8_t* out = next.data() + y * w;
      // Majority of the 3x3 neighborhood (center included).
      for (size_t x = 0; x < w; ++x) out[x] = above[x] + at[x] + below[x] >= 5;
      std::swap(above, at);
      std::swap(at, below);
    }
    cur.swap(next);
  }
  return cur;
}

}  // namespace mivid
