// Rasterizes world state into greyscale frames.
//
// The rendered frames feed the segmentation stack end-to-end, so they
// include the static scene (road, walls), per-vehicle bodies at distinct
// shades, and additive sensor noise.

#ifndef MIVID_TRAFFICSIM_RENDERER_H_
#define MIVID_TRAFFICSIM_RENDERER_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.h"
#include "trafficsim/road.h"
#include "trafficsim/vehicle.h"
#include "video/frame.h"

namespace mivid {

/// Rendering knobs.
struct RenderOptions {
  double noise_stddev = 6.0;  ///< additive Gaussian pixel noise
  uint64_t noise_seed = 7;
  bool draw_noise = true;
  /// Slow sinusoidal global illumination drift (clouds, tunnel lighting):
  /// every pixel is offset by amplitude * sin(2 pi frame / period).
  double illumination_amplitude = 0.0;  ///< intensity units; 0 = off
  int illumination_period = 600;        ///< frames per cycle
};

/// Everything one frame's pixels depend on, captured by Renderer::Prepare.
struct RenderJob {
  std::vector<VehicleState> vehicles;  ///< active vehicles, draw order
  double illumination = 0.0;           ///< global intensity offset
  /// The noise stream at this frame's first draw, as Prepare computed it
  /// (Renderer::Resync corrects it after a rejected u1 draw).
  Rng noise;
};

/// Renderer for a fixed layout.
///
/// Frames depend on their predecessors only through the frame counter and
/// the position of the shared noise stream, so rendering splits into a
/// cheap sequential Prepare, which captures both and advances past the
/// frame, and a pure Run that can draw many frames concurrently.
///
/// Prepare jumps the stream past a frame's draws instead of walking it
/// (RngJump), which assumes no u1 draw of the frame is rejected
/// (p = 2^-53 per draw). Run certifies that: it returns where the stream
/// truly ends, and Resync re-bases every later job when that differs
/// from the next job's start.
class Renderer {
 public:
  Renderer(const RoadLayout& layout, RenderOptions options = {});

  /// The static scene with no vehicles and no noise (ideal background).
  const Frame& background() const { return background_; }

  /// Renders vehicles over the background, then applies illumination
  /// drift and noise. The frame counter advances per call.
  /// Equivalent to Prepare, Run and Resync of one frame.
  Frame Render(const std::vector<VehicleState>& vehicles);

  /// Captures the next frame's inputs and advances the frame counter and
  /// the noise stream past it.
  RenderJob Prepare(const std::vector<VehicleState>& vehicles);

  /// Draws the frame `job` describes into `*frame`, reusing its storage,
  /// and returns the noise stream positioned after the frame's draws.
  /// Thread-safe: reads no mutable renderer state.
  Rng Run(const RenderJob& job, Frame* frame) const;

  /// Certifies a run of consecutive jobs, the last ones prepared except
  /// for `later`: frame i was Run into *frames[i] and returned ends[i].
  /// Where ends[i] differs from the next job's start, re-bases every
  /// later job (`later` and the renderer's own stream included) and
  /// re-runs the later frames of `jobs` in order. Returns the number of
  /// re-bases, 0 unless a u1 draw was rejected.
  size_t Resync(std::span<RenderJob> jobs, std::span<Rng> ends,
                std::span<Frame* const> frames, std::span<RenderJob> later);

 private:
  bool noisy() const {
    return options_.draw_noise && options_.noise_stddev > 0;
  }

  /// Pairs per lane when Run draws `draws` Gaussians in lanes: a quarter
  /// of the pairs if lane_jump_ spans exactly that many, else 0 (no lanes).
  size_t LanePairs(size_t draws) const;

  /// Moves `stream` past one frame's draws, as Run would without a
  /// rejected u1 draw.
  void AdvanceFrame(Rng* stream) const;

  /// Adds the sensor noise of `*noise` to `frame`'s pixels, leaving
  /// `*noise` after the frame. With `lanes`, draws the pairs in four
  /// jumped lanes and returns false, with the frame and `*noise` half
  /// done, if a lane drew a u1 Rng::BoxMullerUniforms would reject.
  bool AddNoise(double illumination, bool lanes, Rng* noise,
                Frame* frame) const;

  RenderOptions options_;
  Frame background_;
  Rng noise_rng_;
  int frame_index_ = 0;
  /// One lane's draws, twice a quarter of the frame's pairs (null when
  /// noise is off or a frame has under four pairs). Prepare jumps a frame
  /// with four of them.
  const RngJump* lane_jump_ = nullptr;
};

namespace render_internal {

/// Writes `pairs` noisy pixel pairs in place: pixel 2i takes g_cos[i] and
/// pixel 2i+1 g_sin[i], each as
/// uint8(clamp((p + illumination) + (0 + stddev * g), 0, 255)), exactly
/// as Gaussian(0, stddev) noise would. The g are approximations of
/// Rng::BoxMullerPair(u1[i], u2[i]); a pair either of whose approximate
/// values lies within `margin` of a quantization boundary (an integer in
/// [1, 255]) is recomputed from the exact pair. If every approximate
/// noisy value is within `margin` of the exact one, the bytes are those
/// of the exact pairs. Returns the number of recomputed pairs.
size_t QuantizeNoisyPairs(const double* u1, const double* u2,
                          const double* g_cos, const double* g_sin,
                          size_t pairs, double illumination, double stddev,
                          double margin, uint8_t* pixels);

}  // namespace render_internal
}  // namespace mivid

#endif  // MIVID_TRAFFICSIM_RENDERER_H_
