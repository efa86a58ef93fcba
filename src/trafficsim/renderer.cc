#include "trafficsim/renderer.h"

#include <algorithm>
#include <cmath>

#include "video/draw.h"

namespace mivid {

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

  const bool draw_noise = noisy();
  if (draw_noise || job.illumination != 0.0) {
    Rng noise = job.noise;
    for (auto& p : frame->pixels()) {
      double v = static_cast<double>(p) + job.illumination;
      if (draw_noise) v += noise.Gaussian(0, options_.noise_stddev);
      p = static_cast<uint8_t>(std::clamp(v, 0.0, 255.0));
    }
  }
}

}  // namespace mivid
