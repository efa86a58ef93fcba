// Rasterizes world state into greyscale frames.
//
// The rendered frames feed the segmentation stack end-to-end, so they
// include the static scene (road, walls), per-vehicle bodies at distinct
// shades, and additive sensor noise.

#ifndef MIVID_TRAFFICSIM_RENDERER_H_
#define MIVID_TRAFFICSIM_RENDERER_H_

#include <cstddef>
#include <cstdint>
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
  Rng noise;  ///< the noise stream positioned at this frame's first draw
};

/// Renderer for a fixed layout.
///
/// Frames depend on their predecessors only through the frame counter and
/// the position of the shared noise stream, so rendering splits into a
/// cheap sequential Prepare, which captures both and advances past the
/// frame, and a pure Run that can draw many frames concurrently.
class Renderer {
 public:
  Renderer(const RoadLayout& layout, RenderOptions options = {});

  /// The static scene with no vehicles and no noise (ideal background).
  const Frame& background() const { return background_; }

  /// Renders vehicles over the background, then applies illumination
  /// drift and noise. The frame counter advances per call.
  /// Equivalent to Run(Prepare(vehicles)).
  Frame Render(const std::vector<VehicleState>& vehicles);

  /// Captures the next frame's inputs and advances the frame counter and
  /// the noise stream past it.
  RenderJob Prepare(const std::vector<VehicleState>& vehicles);

  /// Draws the frame `job` describes into `*frame`, reusing its storage.
  /// Thread-safe: reads no mutable renderer state.
  void Run(const RenderJob& job, Frame* frame) const;

 private:
  bool noisy() const {
    return options_.draw_noise && options_.noise_stddev > 0;
  }

  RenderOptions options_;
  Frame background_;
  Rng noise_rng_;
  int frame_index_ = 0;
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
