#include "trafficsim/renderer.h"

#include <algorithm>
#include <cmath>

#include "linalg/simd.h"
#include "obs/metrics.h"
#include "video/draw.h"

namespace mivid {

namespace {

/// Pixel pairs per noise block of Run (two stack buffers of uniforms and
/// two of approximations: 8 KiB).
constexpr size_t kNoiseBlockPairs = 256;

/// Byte of pixel `p` with Gaussian(0, stddev) noise `g` added, computed
/// as the quantize_noisy_pairs kernel does (see SimdOpsTable). The byte
/// is uint8(clamp(v, 0, 255)) of the noisy value v: clamping v to [0.5,
/// 255.5] first changes no byte, since bytes change only at the integers
/// 1..255.
uint8_t NoisyPixel(uint8_t p, double illumination, double stddev, double g) {
  double v = static_cast<double>(p) + illumination;
  v += 0.0 + stddev * g;
  return static_cast<uint8_t>(std::min(std::max(v, 0.5), 255.5));
}

}  // namespace

namespace render_internal {

size_t QuantizeNoisyPairs(const double* u1, const double* u2,
                          const double* g_cos, const double* g_sin,
                          size_t pairs, double illumination, double stddev,
                          double margin, uint8_t* pixels) {
  // The tiered pass over the approximations, then the rare exact pairs.
  // A value lies within `margin` of a byte boundary exactly when its
  // fraction lies within `margin` of 0 or 1.
  const SimdOpsTable& ops = SimdOps();
  const double far = 0.5 - margin;
  uint8_t bytes[2 * kNoiseBlockPairs];
  uint32_t flagged[kNoiseBlockPairs];
  size_t exact = 0;
  for (size_t begin = 0; begin < pairs; begin += kNoiseBlockPairs) {
    const size_t n = std::min(pairs - begin, kNoiseBlockPairs);
    uint8_t* px = pixels + 2 * begin;
    const size_t near =
        ops.quantize_noisy_pairs(px, g_cos + begin, g_sin + begin, n,
                                 illumination, stddev, far, bytes, flagged);
    for (size_t k = 0; k < near; ++k) {
      const size_t i = flagged[k];
      double gc, gs;
      Rng::BoxMullerPair(u1[begin + i], u2[begin + i], &gc, &gs);
      bytes[2 * i] = NoisyPixel(px[2 * i], illumination, stddev, gc);
      bytes[2 * i + 1] = NoisyPixel(px[2 * i + 1], illumination, stddev, gs);
    }
    exact += near;
    std::copy(bytes, bytes + 2 * n, px);
  }
  return exact;
}

}  // namespace render_internal

Renderer::Renderer(const RoadLayout& layout, RenderOptions options)
    : options_(options), noise_rng_(options.noise_seed) {
  background_ = Frame(layout.width, layout.height, layout.background_shade);
  for (const auto& surface : layout.road_surface) {
    FillRect(&background_, surface, layout.road_shade);
  }
  for (const auto& wall : layout.walls) {
    FillRect(&background_, wall, 150);  // bright tunnel wall cladding
  }
}

Frame Renderer::Render(const std::vector<VehicleState>& vehicles) {
  Frame frame;
  Run(Prepare(vehicles), &frame);
  return frame;
}

RenderJob Renderer::Prepare(const std::vector<VehicleState>& vehicles) {
  RenderJob job;
  for (const auto& v : vehicles) {
    if (v.active()) job.vehicles.push_back(v);
  }
  if (options_.illumination_amplitude > 0 &&
      options_.illumination_period > 0) {
    job.illumination = options_.illumination_amplitude *
                       std::sin(2.0 * M_PI * frame_index_ /
                                options_.illumination_period);
  }
  ++frame_index_;
  job.noise = noise_rng_;
  // Run draws one Gaussian per pixel; the next frame starts after them.
  if (noisy()) noise_rng_.SkipGaussians(background_.size());
  return job;
}

void Renderer::Run(const RenderJob& job, Frame* frame) const {
  *frame = background_;
  for (const auto& v : job.vehicles) {
    const VehicleDims dims = DimsFor(v.type);
    FillRotatedRect(frame, v.position, dims.length / 2, dims.width / 2,
                    v.heading, v.shade);
  }

  if (!noisy()) {
    if (job.illumination == 0.0) return;
    for (auto& p : frame->pixels()) {
      p = static_cast<uint8_t>(
          std::clamp(static_cast<double>(p) + job.illumination, 0.0, 255.0));
    }
    return;
  }

  // Pixel i takes the stream's i-th Gaussian. Pairs of fresh draws come
  // from the polynomial Box-Muller row, whose values are within
  // kBoxMullerMaxAbsError of libm's. A noisy value then differs from the
  // exact one by at most `margin`: stddev times that error, plus the
  // roundings of stddev * g (|g| <= 38.6, so under stddev * 1e-14) and
  // of the add into a value near a boundary (<= 256, under 1e-13). Only
  // pairs within `margin` of a boundary need libm's exact values.
  const double sd = options_.noise_stddev;
  const double illum = job.illumination;
  const double margin = sd * (kBoxMullerMaxAbsError + 1e-14) + 1e-13;
  const SimdOpsTable& ops = SimdOps();
  Rng noise = job.noise;
  uint8_t* px = frame->pixels().data();
  size_t left = frame->pixels().size();
  if (left > 0 && noise.has_cached_gaussian()) {
    *px = NoisyPixel(*px, illum, sd, noise.Gaussian());
    ++px;
    --left;
  }
  size_t exact_pairs = 0;
  double u1[kNoiseBlockPairs], u2[kNoiseBlockPairs];
  double g_cos[kNoiseBlockPairs], g_sin[kNoiseBlockPairs];
  while (left >= 2) {
    const size_t pairs = std::min(left / 2, kNoiseBlockPairs);
    noise.BoxMullerUniforms(pairs, u1, u2);
    ops.box_muller_row(u1, u2, pairs, g_cos, g_sin);
    exact_pairs += render_internal::QuantizeNoisyPairs(
        u1, u2, g_cos, g_sin, pairs, illum, sd, margin, px);
    px += 2 * pairs;
    left -= 2 * pairs;
  }
  if (left == 1) *px = NoisyPixel(*px, illum, sd, noise.Gaussian());
  MIVID_METRIC_COUNT("render/noise_exact_pairs", exact_pairs);
}

}  // namespace mivid
