#include "trafficsim/renderer.h"

#include <algorithm>
#include <cmath>

#include "linalg/simd.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "video/draw.h"

namespace mivid {

namespace {

/// Pixel pairs per noise block of Run (two stack buffers of uniforms and
/// two of approximations: 8 KiB).
constexpr size_t kNoiseBlockPairs = 256;

/// Streams Run draws a frame's pairs from side by side; each lane's block
/// is a quarter of the noise block.
constexpr size_t kNoiseLanes = 4;
constexpr size_t kLaneBlockPairs = kNoiseBlockPairs / kNoiseLanes;

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
  // The lanes split a frame's pixels / 2 pairs (rounded down) four ways.
  const size_t lane_pairs = background_.size() / 2 / kNoiseLanes;
  if (noisy() && lane_pairs > 0) {
    MIVID_TRACE_SPAN("render/noise_jump");  // built once per process
    lane_jump_ = &RngJump::Cached(2 * lane_pairs);
  }
}

size_t Renderer::LanePairs(size_t draws) const {
  const size_t lane_pairs = draws / 2 / kNoiseLanes;
  return lane_jump_ != nullptr && lane_jump_->steps() == 2 * lane_pairs
             ? lane_pairs
             : 0;
}

Frame Renderer::Render(const std::vector<VehicleState>& vehicles) {
  Frame frame;
  RenderJob job = Prepare(vehicles);
  Rng end = Run(job, &frame);
  Frame* const frames[] = {&frame};
  Resync(std::span(&job, 1), std::span(&end, 1), frames, {});
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
  if (noisy()) AdvanceFrame(&noise_rng_);
  return job;
}

void Renderer::AdvanceFrame(Rng* stream) const {
  // Run draws one Gaussian per pixel, in this order: a cached value, the
  // four lanes (jumped, assuming no u1 draw is rejected), then the rest.
  size_t left = background_.size();
  if (left > 0 && stream->has_cached_gaussian()) {
    stream->SkipGaussians(1);
    --left;
  }
  const size_t lane_pairs = LanePairs(left);
  for (size_t j = 0; lane_pairs > 0 && j < kNoiseLanes; ++j) {
    stream->Jump(*lane_jump_);
  }
  stream->SkipGaussians(left - 2 * kNoiseLanes * lane_pairs);
}

size_t Renderer::Resync(std::span<RenderJob> jobs, std::span<Rng> ends,
                        std::span<Frame* const> frames,
                        std::span<RenderJob> later) {
  size_t resyncs = 0;
  for (size_t i = 0; i < jobs.size(); ++i) {
    // After a re-base every later frame is drawn again, in order.
    if (resyncs > 0) ends[i] = Run(jobs[i], frames[i]);
    const Rng& next = i + 1 < jobs.size() ? jobs[i + 1].noise
                      : !later.empty()    ? later.front().noise
                                          : noise_rng_;
    if (ends[i] == next) continue;
    ++resyncs;
    Rng stream = ends[i];
    for (RenderJob& job : jobs.subspan(i + 1)) {
      job.noise = stream;
      AdvanceFrame(&stream);
    }
    for (RenderJob& job : later) {
      job.noise = stream;
      AdvanceFrame(&stream);
    }
    noise_rng_ = stream;
  }
  MIVID_METRIC_COUNT("render/noise_resyncs", resyncs);
  return resyncs;
}

Rng Renderer::Run(const RenderJob& job, Frame* frame) const {
  auto draw_scene = [&] {
    *frame = background_;
    for (const auto& v : job.vehicles) {
      const VehicleDims dims = DimsFor(v.type);
      FillRotatedRect(frame, v.position, dims.length / 2, dims.width / 2,
                      v.heading, v.shade);
    }
  };
  draw_scene();

  if (!noisy()) {
    if (job.illumination == 0.0) return job.noise;
    for (auto& p : frame->pixels()) {
      p = static_cast<uint8_t>(
          std::clamp(static_cast<double>(p) + job.illumination, 0.0, 255.0));
    }
    return job.noise;
  }

  Rng noise = job.noise;
  if (!AddNoise(job.illumination, /*lanes=*/true, &noise, frame)) {
    // A lane would have redrawn a u1 and shifted every later draw: the
    // frame again, from one serial stream.
    draw_scene();
    noise = job.noise;
    AddNoise(job.illumination, /*lanes=*/false, &noise, frame);
  }
  return noise;
}

bool Renderer::AddNoise(double illumination, bool lanes, Rng* noise,
                        Frame* frame) const {
  // Pixel i takes the stream's i-th Gaussian. Pairs of fresh draws come
  // from the polynomial Box-Muller row, whose values are within
  // kBoxMullerMaxAbsError of libm's. A noisy value then differs from the
  // exact one by at most `margin`: stddev times that error, plus the
  // roundings of stddev * g (|g| <= 38.6, so under stddev * 1e-14) and
  // of the add into a value near a boundary (<= 256, under 1e-13). Only
  // pairs within `margin` of a boundary need libm's exact values.
  const double sd = options_.noise_stddev;
  const double margin = sd * (kBoxMullerMaxAbsError + 1e-14) + 1e-13;
  const SimdOpsTable& ops = SimdOps();
  uint8_t* px = frame->pixels().data();
  size_t left = frame->pixels().size();
  if (left > 0 && noise->has_cached_gaussian()) {
    *px = NoisyPixel(*px, illumination, sd, noise->Gaussian());
    ++px;
    --left;
  }
  size_t exact_pairs = 0;
  double u1[kNoiseBlockPairs], u2[kNoiseBlockPairs];
  double g_cos[kNoiseBlockPairs], g_sin[kNoiseBlockPairs];
  // Lane j starts 2 j lane_pairs draws into the frame (J^j s, J the lane
  // jump) and draws pairs [j lane_pairs, (j + 1) lane_pairs). Without a
  // rejected u1 these are exactly the serial stream's pairs, and the last
  // lane ends where the serial stream would.
  const size_t lane_pairs = lanes ? LanePairs(left) : 0;
  if (lane_pairs > 0) {
    RngState lanes[kNoiseLanes] = {noise->state()};
    for (size_t j = 1; j < kNoiseLanes; ++j) {
      lanes[j] = lanes[j - 1];
      lane_jump_->Apply(&lanes[j]);
    }
    for (size_t begin = 0; begin < lane_pairs; begin += kLaneBlockPairs) {
      const size_t n = std::min(lane_pairs - begin, kLaneBlockPairs);
      if (ops.noise_uniform_lanes(lanes, n, n, u1, u2)) return false;
      ops.box_muller_row(u1, u2, kNoiseLanes * n, g_cos, g_sin);
      for (size_t j = 0; j < kNoiseLanes; ++j) {
        exact_pairs += render_internal::QuantizeNoisyPairs(
            u1 + j * n, u2 + j * n, g_cos + j * n, g_sin + j * n, n,
            illumination, sd, margin, px + 2 * (j * lane_pairs + begin));
      }
    }
    noise->set_state(lanes[kNoiseLanes - 1]);
    px += 2 * kNoiseLanes * lane_pairs;
    left -= 2 * kNoiseLanes * lane_pairs;
  }
  while (left >= 2) {
    const size_t pairs = std::min(left / 2, kNoiseBlockPairs);
    noise->BoxMullerUniforms(pairs, u1, u2);
    ops.box_muller_row(u1, u2, pairs, g_cos, g_sin);
    exact_pairs += render_internal::QuantizeNoisyPairs(
        u1, u2, g_cos, g_sin, pairs, illumination, sd, margin, px);
    px += 2 * pairs;
    left -= 2 * pairs;
  }
  if (left == 1) *px = NoisyPixel(*px, illumination, sd, noise->Gaussian());
  MIVID_METRIC_COUNT("render/noise_exact_pairs", exact_pairs);
  return true;
}

}  // namespace mivid
