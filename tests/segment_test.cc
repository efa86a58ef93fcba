// Tests for segment/: background model, SPCPE, connected components and
// the full VehicleSegmenter on synthetic frames.

#include <algorithm>
#include <deque>
#include <span>
#include <utility>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "segment/segmenter.h"
#include "video/draw.h"

namespace mivid {
namespace {

Frame MakeBackground(uint8_t shade = 60) { return Frame(64, 48, shade); }

TEST(BackgroundModelTest, WarmupThenReady) {
  BackgroundOptions options;
  options.warmup_frames = 5;
  BackgroundModel model(options);
  for (int i = 0; i < 4; ++i) {
    model.Update(MakeBackground());
    EXPECT_FALSE(model.Ready());
  }
  model.Update(MakeBackground());
  EXPECT_TRUE(model.Ready());
  EXPECT_EQ(model.frames_seen(), 5);
}

TEST(BackgroundModelTest, LearnsStaticScene) {
  BackgroundModel model;
  for (int i = 0; i < 15; ++i) model.Update(MakeBackground(60));
  const Frame bg = model.BackgroundFrame();
  EXPECT_EQ(bg.At(10, 10), 60);
  const Mask mask = model.Subtract(MakeBackground(60));
  for (uint8_t m : mask) EXPECT_EQ(m, 0);
}

TEST(BackgroundModelTest, DetectsForeignObject) {
  BackgroundModel model;
  for (int i = 0; i < 12; ++i) model.Update(MakeBackground(60));
  Frame frame = MakeBackground(60);
  FillRect(&frame, BBox(10, 10, 20, 18), 200);
  const Mask mask = model.Subtract(frame);
  EXPECT_EQ(mask[15 * 64 + 15], 1);
  EXPECT_EQ(mask[5 * 64 + 5], 0);
}

TEST(BackgroundModelTest, SelectiveUpdateKeepsStoppedObjectForeground) {
  BackgroundOptions options;
  options.learning_rate = 0.2;  // aggressive, to prove selectivity matters
  BackgroundModel model(options);
  for (int i = 0; i < 12; ++i) model.Update(MakeBackground(60));
  Frame with_car = MakeBackground(60);
  FillRect(&with_car, BBox(10, 10, 20, 18), 200);
  // A stopped car sits there for many frames.
  for (int i = 0; i < 50; ++i) model.Update(with_car);
  const Mask mask = model.Subtract(with_car);
  EXPECT_EQ(mask[14 * 64 + 14], 1) << "stopped car absorbed into background";
}

TEST(CleanMaskTest, RemovesIsolatedPixelsKeepsBlocks) {
  const int w = 16, h = 16;
  Mask mask(static_cast<size_t>(w) * h, 0);
  mask[3 * 16 + 3] = 1;  // lone speck
  for (int y = 8; y < 12; ++y) {
    for (int x = 8; x < 12; ++x) mask[y * 16 + x] = 1;  // 4x4 block
  }
  const Mask cleaned = CleanMask(mask, w, h, 1);
  EXPECT_EQ(cleaned[3 * 16 + 3], 0);
  EXPECT_EQ(cleaned[10 * 16 + 10], 1);
}

/// The bounds-checked 9-neighbour majority scan CleanMask replaced.
Mask BruteForceCleanMask(const Mask& mask, int width, int height,
                         int iterations) {
  Mask cur = mask;
  for (int it = 0; it < iterations; ++it) {
    Mask next(cur.size(), 0);
    for (int y = 0; y < height; ++y) {
      for (int x = 0; x < width; ++x) {
        int count = 0;
        for (int dy = -1; dy <= 1; ++dy) {
          for (int dx = -1; dx <= 1; ++dx) {
            const int nx = x + dx, ny = y + dy;
            if (nx < 0 || nx >= width || ny < 0 || ny >= height) continue;
            count += cur[static_cast<size_t>(ny) * width + nx];
          }
        }
        next[static_cast<size_t>(y) * width + x] = count >= 5 ? 1 : 0;
      }
    }
    cur.swap(next);
  }
  return cur;
}

TEST(CleanMaskTest, SeparableCountMatchesBruteForceScan) {
  Rng rng(41);
  for (const int width : {1, 2, 3, 4, 17, 64}) {
    for (const int height : {1, 2, 3, 5, 33}) {
      for (const double density : {0.2, 0.5, 0.8}) {
        Mask mask(static_cast<size_t>(width) * height);
        for (auto& m : mask) m = rng.Bernoulli(density) ? 1 : 0;
        for (int iterations = 0; iterations <= 3; ++iterations) {
          EXPECT_EQ(CleanMask(mask, width, height, iterations),
                    BruteForceCleanMask(mask, width, height, iterations))
              << width << "x" << height << " density " << density
              << " iterations " << iterations;
        }
      }
    }
  }
}

TEST(SpcpeTest, SeparatesTwoIntensityClasses) {
  Frame frame(32, 32, 50);
  FillRect(&frame, BBox(8, 8, 15, 15), 210);
  SpcpeResult result = RunSpcpe(frame, nullptr, 50.0);
  EXPECT_TRUE(result.two_classes);
  EXPECT_NEAR(result.class_mean[0], 50.0, 2.0);
  EXPECT_NEAR(result.class_mean[1], 210.0, 2.0);
  EXPECT_EQ(result.partition[10 * 32 + 10], 1);
  EXPECT_EQ(result.partition[0], 0);
}

TEST(SpcpeTest, ConvergesWithinIterationBudget) {
  Rng rng(3);
  Frame frame(32, 32);
  for (auto& p : frame.pixels()) {
    p = static_cast<uint8_t>(rng.Bernoulli(0.5) ? rng.UniformInt(40, 60)
                                                : rng.UniformInt(180, 220));
  }
  SpcpeResult result = RunSpcpe(frame, nullptr, 50.0);
  EXPECT_TRUE(result.two_classes);
  EXPECT_LE(result.iterations, 20);
  EXPECT_GT(result.iterations, 0);
}

TEST(SpcpeTest, HomogeneousRegionIsSingleClass) {
  Frame frame(16, 16, 128);
  Mask prior(frame.size(), 1);
  SpcpeResult result = RunSpcpe(frame, &prior, 40.0);
  EXPECT_FALSE(result.two_classes);
  // Everything in the prior stays foreground.
  EXPECT_EQ(result.partition[0], 1);
}

TEST(SpcpeTest, PriorRestrictsCandidates) {
  Frame frame(16, 16, 50);
  FillRect(&frame, BBox(4, 4, 7, 7), 200);
  Mask prior(frame.size(), 0);
  for (int y = 4; y <= 7; ++y) {
    for (int x = 4; x <= 7; ++x) prior[y * 16 + x] = 1;
  }
  SpcpeResult result = RunSpcpe(frame, &prior, 50.0);
  // Pixels outside the prior are never foreground.
  EXPECT_EQ(result.partition[0], 0);
  EXPECT_EQ(result.partition[5 * 16 + 5], 1);
}

TEST(SpcpeTest, KeepsBothVehicleShadesWithHint) {
  // Two vehicles of different shades, both far from the background hint.
  Frame frame(48, 16, 50);
  FillRect(&frame, BBox(4, 4, 12, 10), 180);
  FillRect(&frame, BBox(30, 4, 38, 10), 240);
  Mask prior(frame.size(), 0);
  for (int y = 4; y <= 10; ++y) {
    for (int x = 4; x <= 12; ++x) prior[y * 48 + x] = 1;
    for (int x = 30; x <= 38; ++x) prior[y * 48 + x] = 1;
  }
  SpcpeResult result = RunSpcpe(frame, &prior, 50.0);
  EXPECT_EQ(result.partition[6 * 48 + 6], 1) << "darker vehicle dropped";
  EXPECT_EQ(result.partition[6 * 48 + 33], 1) << "brighter vehicle dropped";
}

TEST(SpcpeTest, EmptyPriorYieldsEmptyResult) {
  Frame frame(8, 8, 100);
  Mask prior(frame.size(), 0);
  SpcpeResult result = RunSpcpe(frame, &prior, 50.0);
  EXPECT_FALSE(result.two_classes);
  for (uint8_t p : result.partition) EXPECT_EQ(p, 0);
}

TEST(BlobTest, ExtractsComponentsWithMbrAndCentroid) {
  Frame frame(32, 32, 0);
  Mask mask(frame.size(), 0);
  for (int y = 4; y < 10; ++y) {
    for (int x = 4; x < 12; ++x) {
      mask[y * 32 + x] = 1;
      frame.At(x, y) = 200;
    }
  }
  BlobOptions options;
  options.min_area = 10;
  const std::vector<Blob> blobs = ExtractBlobs(mask, frame, options);
  ASSERT_EQ(blobs.size(), 1u);
  EXPECT_EQ(blobs[0].area, 48);
  EXPECT_NEAR(blobs[0].centroid.x, 7.5, 1e-9);
  EXPECT_NEAR(blobs[0].centroid.y, 6.5, 1e-9);
  EXPECT_DOUBLE_EQ(blobs[0].mbr.min_x, 4);
  EXPECT_DOUBLE_EQ(blobs[0].mbr.max_x, 11);
  EXPECT_NEAR(blobs[0].mean_intensity, 200.0, 1e-9);
}

TEST(BlobTest, MinAreaFiltersSpecks) {
  Frame frame(16, 16, 0);
  Mask mask(frame.size(), 0);
  mask[5 * 16 + 5] = 1;
  BlobOptions options;
  options.min_area = 2;
  EXPECT_TRUE(ExtractBlobs(mask, frame, options).empty());
}

TEST(BlobTest, SeparatesDisjointComponents) {
  Frame frame(32, 16, 0);
  Mask mask(frame.size(), 0);
  for (int y = 2; y < 8; ++y) {
    for (int x = 2; x < 8; ++x) mask[y * 32 + x] = 1;
    for (int x = 20; x < 26; ++x) mask[y * 32 + x] = 1;
  }
  BlobOptions options;
  options.min_area = 10;
  const std::vector<Blob> blobs = ExtractBlobs(mask, frame, options);
  EXPECT_EQ(blobs.size(), 2u);
}

TEST(BlobTest, EightVsFourConnectivity) {
  Frame frame(8, 8, 0);
  Mask mask(frame.size(), 0);
  // Two 2x2 blocks touching only diagonally.
  mask[1 * 8 + 1] = mask[1 * 8 + 2] = mask[2 * 8 + 1] = mask[2 * 8 + 2] = 1;
  mask[3 * 8 + 3] = mask[3 * 8 + 4] = mask[4 * 8 + 3] = mask[4 * 8 + 4] = 1;
  BlobOptions options;
  options.min_area = 1;
  options.eight_connected = true;
  EXPECT_EQ(ExtractBlobs(mask, frame, options).size(), 1u);
  options.eight_connected = false;
  EXPECT_EQ(ExtractBlobs(mask, frame, options).size(), 2u);
}

/// ExtractBlobs as it was written before the scan reused its scratch: a
/// breadth-first fill from each seed in raster order, with double sums.
/// The reference the current implementation must match bit for bit.
std::vector<Blob> ReferenceExtractBlobs(const Mask& mask, const Frame& source,
                                        const BlobOptions& options) {
  const int w = source.width(), h = source.height();
  std::vector<Blob> blobs;
  std::vector<uint8_t> visited(mask.size(), 0);
  static const int dx8[] = {1, -1, 0, 0, 1, 1, -1, -1};
  static const int dy8[] = {0, 0, 1, -1, 1, -1, 1, -1};
  const int num_dirs = options.eight_connected ? 8 : 4;
  std::deque<std::pair<int, int>> queue;
  for (int sy = 0; sy < h; ++sy) {
    for (int sx = 0; sx < w; ++sx) {
      const size_t si = static_cast<size_t>(sy) * w + sx;
      if (mask[si] == 0 || visited[si]) continue;
      queue.assign(1, {sx, sy});
      visited[si] = 1;
      double sum_x = 0, sum_y = 0, sum_i = 0;
      int area = 0;
      int min_x = sx, max_x = sx, min_y = sy, max_y = sy;
      while (!queue.empty()) {
        const auto [x, y] = queue.front();
        queue.pop_front();
        ++area;
        sum_x += x;
        sum_y += y;
        sum_i += source.At(x, y);
        min_x = std::min(min_x, x);
        max_x = std::max(max_x, x);
        min_y = std::min(min_y, y);
        max_y = std::max(max_y, y);
        for (int d = 0; d < num_dirs; ++d) {
          const int nx = x + dx8[d], ny = y + dy8[d];
          if (nx < 0 || nx >= w || ny < 0 || ny >= h) continue;
          const size_t ni = static_cast<size_t>(ny) * w + nx;
          if (mask[ni] == 0 || visited[ni]) continue;
          visited[ni] = 1;
          queue.emplace_back(nx, ny);
        }
      }
      if (area < options.min_area || area > options.max_area) continue;
      Blob blob;
      blob.area = area;
      blob.centroid = {sum_x / area, sum_y / area};
      blob.mbr = BBox(min_x, min_y, max_x, max_y);
      blob.mean_intensity = sum_i / area;
      blobs.push_back(blob);
    }
  }
  return blobs;
}

void ExpectSameBlobs(const std::vector<Blob>& got,
                     const std::vector<Blob>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t b = 0; b < got.size(); ++b) {
    SCOPED_TRACE(b);
    EXPECT_EQ(got[b].area, want[b].area);
    EXPECT_EQ(got[b].centroid.x, want[b].centroid.x);
    EXPECT_EQ(got[b].centroid.y, want[b].centroid.y);
    EXPECT_EQ(got[b].mbr.min_x, want[b].mbr.min_x);
    EXPECT_EQ(got[b].mbr.min_y, want[b].mbr.min_y);
    EXPECT_EQ(got[b].mbr.max_x, want[b].mbr.max_x);
    EXPECT_EQ(got[b].mbr.max_y, want[b].mbr.max_y);
    EXPECT_EQ(got[b].mean_intensity, want[b].mean_intensity);
  }
}

TEST(BlobScanTest, MatchesBreadthFirstReferenceOnRandomMasks) {
  // Random masks (any nonzero byte is foreground) of every density on
  // narrow and odd-width frames, plus a full mask and a border ring, so
  // components touch every edge; each area filter also sits exactly on a
  // component's area.
  Rng rng(41);
  for (const int w : {1, 2, 3, 17, 40}) {
    for (const int h : {1, 2, 3, 17, 23}) {
      Frame frame(w, h);
      for (auto& p : frame.pixels()) {
        p = static_cast<uint8_t>(rng.UniformInt(0, 255));
      }
      std::vector<Mask> masks;
      for (const double density : {0.05, 0.3, 0.55, 0.9}) {
        Mask mask(frame.size());
        for (auto& m : mask) {
          m = rng.Bernoulli(density) ? static_cast<uint8_t>(rng.UniformInt(1, 255))
                                     : 0;
        }
        masks.push_back(std::move(mask));
      }
      masks.emplace_back(frame.size(), 1);
      Mask ring(frame.size(), 0);
      for (int y = 0; y < h; ++y) {
        for (int x = 0; x < w; ++x) {
          ring[y * w + x] = x == 0 || y == 0 || x == w - 1 || y == h - 1;
        }
      }
      masks.push_back(std::move(ring));
      for (const Mask& mask : masks) {
        for (const bool eight : {true, false}) {
          BlobOptions all;
          all.min_area = 1;
          all.eight_connected = eight;
          const std::vector<Blob> every = ReferenceExtractBlobs(mask, frame, all);
          std::vector<BlobOptions> filters = {all};
          if (!every.empty()) {
            BlobOptions edge = all;
            edge.min_area = every[every.size() / 2].area;
            edge.max_area = every.front().area;
            filters.push_back(edge);
            edge.max_area = edge.min_area;
            filters.push_back(edge);
            edge.min_area = every.back().area + 1;
            edge.max_area = 1 << 20;
            filters.push_back(edge);
          }
          for (const BlobOptions& options : filters) {
            SCOPED_TRACE(testing::Message()
                         << w << "x" << h << " eight " << eight << " min "
                         << options.min_area << " max " << options.max_area);
            ExpectSameBlobs(ExtractBlobs(mask, frame, options),
                            ReferenceExtractBlobs(mask, frame, options));
          }
        }
      }
    }
  }
}

TEST(SegmenterTest, EndToEndDetectsMovingVehicle) {
  SegmenterOptions options;
  options.background.warmup_frames = 8;
  options.blob.min_area = 20;
  VehicleSegmenter segmenter(options);

  Rng rng(4);
  // Static background + moving bright rectangle, mild noise.
  for (int frame_idx = 0; frame_idx < 40; ++frame_idx) {
    Frame frame(96, 64, 60);
    if (frame_idx >= 10) {
      const double x = 10 + (frame_idx - 10) * 2.0;
      FillRect(&frame, BBox(x, 28, x + 14, 36), 210);
    }
    for (auto& p : frame.pixels()) {
      p = static_cast<uint8_t>(std::clamp(
          static_cast<double>(p) + rng.Gaussian(0, 2.0), 0.0, 255.0));
    }
    const std::vector<Blob> blobs = segmenter.Process(frame);
    if (frame_idx >= 12) {
      ASSERT_EQ(blobs.size(), 1u) << "frame " << frame_idx;
      const double expected_cx = 10 + (frame_idx - 10) * 2.0 + 7.0;
      EXPECT_NEAR(blobs[0].centroid.x, expected_cx, 2.5);
      EXPECT_NEAR(blobs[0].centroid.y, 32.0, 2.5);
    }
  }
}

TEST(SegmenterTest, NoDetectionsDuringWarmup) {
  VehicleSegmenter segmenter;
  Frame frame(32, 32, 80);
  FillRect(&frame, BBox(5, 5, 15, 15), 220);
  EXPECT_TRUE(segmenter.Process(frame).empty());
  EXPECT_FALSE(segmenter.Ready());
}

/// Noisy frames of a bright block sliding over a 97x61 scene: 5917
/// pixels, so the batch update splits the model into two stripes, the
/// second one partial.
std::vector<Frame> SlidingBlockClip(int frames) {
  Rng rng(3);
  std::vector<Frame> clip;
  for (int f = 0; f < frames; ++f) {
    Frame frame(97, 61, 60);
    const double x = 2.0 + 0.6 * f;
    FillRect(&frame, BBox(x, 20, x + 12, 30), 210);
    for (auto& p : frame.pixels()) {
      p = static_cast<uint8_t>(std::clamp(
          static_cast<double>(p) + rng.Gaussian(0, 5.0), 0.0, 255.0));
    }
    clip.push_back(std::move(frame));
  }
  return clip;
}

/// Reference model: the background written out frame by frame and pixel
/// by pixel (running mean, selective EMA, or the median of a buffer of
/// spaced samples, oldest dropped first), then subtracted and averaged.
std::vector<BackgroundObservation> FrameByFrameReference(
    const BackgroundOptions& o, const std::vector<Frame>& clip) {
  const size_t pixels = clip.front().size();
  std::vector<double> mean(pixels, 0.0);
  std::vector<std::vector<uint8_t>> samples;
  std::vector<BackgroundObservation> out(clip.size());
  for (size_t f = 0; f < clip.size(); ++f) {
    const std::vector<uint8_t>& px = clip[f].pixels();
    const int seen = static_cast<int>(f);
    if (o.method == BackgroundMethod::kSelectiveMean) {
      for (size_t i = 0; i < pixels; ++i) {
        if (seen < o.warmup_frames) {
          mean[i] = (mean[i] * seen + px[i]) / (seen + 1.0);
        } else if (std::fabs(px[i] - mean[i]) < o.diff_threshold) {
          mean[i] = (1.0 - o.learning_rate) * mean[i] + o.learning_rate * px[i];
        }
      }
    } else if (seen < o.warmup_frames || seen % o.median_sample_stride == 0) {
      samples.push_back(px);
      if (samples.size() > static_cast<size_t>(o.median_samples)) {
        samples.erase(samples.begin());
      }
      for (size_t i = 0; i < pixels; ++i) {
        std::vector<uint8_t> column;
        for (const auto& sample : samples) column.push_back(sample[i]);
        std::sort(column.begin(), column.end());
        mean[i] = column[column.size() / 2];
      }
    }
    if (seen + 1 < o.warmup_frames) continue;
    out[f].ready = true;
    uint64_t sum = 0;
    for (size_t i = 0; i < pixels; ++i) {
      out[f].mask.push_back(std::fabs(px[i] - mean[i]) >= o.diff_threshold);
      sum += static_cast<uint8_t>(std::clamp(mean[i], 0.0, 255.0));
    }
    out[f].bg_mean = static_cast<double>(sum) / pixels;
  }
  return out;
}

class BatchIngestTest : public ::testing::TestWithParam<BackgroundMethod> {};

TEST_P(BatchIngestTest, MatchesFrameByFrameIngestAtAnyBatchSize) {
  SegmenterOptions options;
  options.background.method = GetParam();
  options.background.median_sample_stride = 3;
  const std::vector<Frame> clip = SlidingBlockClip(150);
  const std::vector<BackgroundObservation> expected =
      FrameByFrameReference(options.background, clip);
  ASSERT_FALSE(expected.front().ready);
  ASSERT_TRUE(expected.back().ready);

  for (const int threads : {1, 4}) {
    SetGlobalThreadCount(threads);
    // Sizes 3 and 64 put the end of warmup inside a batch.
    for (const size_t batch_size : {1u, 3u, 64u}) {
      VehicleSegmenter segmenter(options);
      std::vector<PendingSegmentation> batch(batch_size);  // reused
      for (size_t b = 0; b < clip.size(); b += batch_size) {
        const size_t n = std::min(batch_size, clip.size() - b);
        for (size_t i = 0; i < n; ++i) batch[i].frame = clip[b + i];
        segmenter.IngestBatch(std::span(batch).first(n));
        for (size_t i = 0; i < n; ++i) {
          const BackgroundObservation& got = batch[i].background;
          const BackgroundObservation& want = expected[b + i];
          ASSERT_EQ(got.ready, want.ready) << "frame " << b + i;
          ASSERT_EQ(got.mask, want.mask) << "frame " << b + i;
          ASSERT_EQ(got.bg_mean, want.bg_mean) << "frame " << b + i;
        }
      }
    }
  }
  SetGlobalThreadCount(0);
}

INSTANTIATE_TEST_SUITE_P(BothMethods, BatchIngestTest,
                         ::testing::Values(BackgroundMethod::kSelectiveMean,
                                           BackgroundMethod::kTemporalMedian));

}  // namespace
}  // namespace mivid
