// Tests for the temporal-median background variant and one-class SMO
// optimality (brute-force cross-check), plus simulator flow invariants.

#include <algorithm>
#include <cstdlib>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "segment/segmenter.h"
#include "segment/background.h"
#include "svm/one_class_svm.h"
#include "trafficsim/renderer.h"
#include "trafficsim/scenarios.h"
#include "video/draw.h"

namespace mivid {
namespace {

TEST(TemporalMedianTest, LearnsStaticSceneAndDetectsObject) {
  BackgroundOptions options;
  options.method = BackgroundMethod::kTemporalMedian;
  options.warmup_frames = 6;
  BackgroundModel model(options);
  for (int i = 0; i < 10; ++i) model.Update(Frame(48, 32, 70));
  ASSERT_TRUE(model.Ready());
  EXPECT_EQ(model.BackgroundFrame().At(5, 5), 70);

  Frame with_car(48, 32, 70);
  FillRect(&with_car, BBox(10, 10, 20, 16), 210);
  const Mask mask = model.Subtract(with_car);
  EXPECT_EQ(mask[12 * 48 + 12], 1);
  EXPECT_EQ(mask[2 * 48 + 2], 0);
}

TEST(TemporalMedianTest, RobustToTransientOccupancy) {
  // A vehicle parked during part of the sampling window must not corrupt
  // the median as long as it covers under half the samples.
  BackgroundOptions options;
  options.method = BackgroundMethod::kTemporalMedian;
  options.warmup_frames = 4;
  options.median_samples = 9;
  options.median_sample_stride = 1;  // sample every frame for the test
  BackgroundModel model(options);
  Frame empty(48, 32, 70);
  Frame occupied = empty;
  FillRect(&occupied, BBox(10, 10, 20, 16), 210);
  // 6 empty, 3 occupied -> median stays background.
  for (int i = 0; i < 6; ++i) model.Update(empty);
  for (int i = 0; i < 3; ++i) model.Update(occupied);
  EXPECT_EQ(model.BackgroundFrame().At(12, 12), 70);
  const Mask mask = model.Subtract(occupied);
  EXPECT_EQ(mask[12 * 48 + 12], 1) << "vehicle leaked into the background";
}

TEST(TemporalMedianTest, HandlesNoise) {
  Rng rng(5);
  BackgroundOptions options;
  options.method = BackgroundMethod::kTemporalMedian;
  options.warmup_frames = 6;
  options.median_sample_stride = 2;
  BackgroundModel model(options);
  for (int i = 0; i < 30; ++i) {
    Frame f(32, 32, 100);
    for (auto& p : f.pixels()) {
      p = static_cast<uint8_t>(std::clamp(
          100.0 + rng.Gaussian(0, 4.0), 0.0, 255.0));
    }
    model.Update(f);
  }
  const Frame bg = model.BackgroundFrame();
  EXPECT_NEAR(bg.At(16, 16), 100, 6);
  // A clean frame subtracts to (almost) nothing.
  const Mask mask = model.Subtract(Frame(32, 32, 100));
  size_t fg = 0;
  for (uint8_t m : mask) fg += m;
  EXPECT_LT(fg, mask.size() / 100);
}

TEST(TemporalMedianTest, BatchUpdateReplacesTheOldestSample) {
  // Three samples, one per frame: a 64-frame batch wraps the sample ring
  // many times, and the background must always be the median of the
  // three newest frames.
  BackgroundOptions options;
  options.method = BackgroundMethod::kTemporalMedian;
  options.warmup_frames = 2;
  options.median_samples = 3;
  options.median_sample_stride = 1;
  std::vector<uint8_t> shades;
  std::vector<Frame> clip;
  for (int f = 0; f < 64; ++f) {
    shades.push_back(static_cast<uint8_t>(60 + (f * 37) % 101));
    clip.emplace_back(48, 32, shades.back());
  }
  std::vector<const Frame*> frames;
  std::vector<BackgroundObservation> observed(clip.size());
  std::vector<BackgroundObservation*> out;
  for (size_t f = 0; f < clip.size(); ++f) {
    frames.push_back(&clip[f]);
    out.push_back(&observed[f]);
  }
  BackgroundModel model(options);
  model.UpdateBatch(frames, out);
  EXPECT_FALSE(observed[0].ready);
  for (size_t f = 1; f < clip.size(); ++f) {
    std::vector<uint8_t> newest(shades.begin() + (f < 2 ? 0 : f - 2),
                                shades.begin() + f + 1);
    std::sort(newest.begin(), newest.end());
    const uint8_t median = newest[newest.size() / 2];
    ASSERT_TRUE(observed[f].ready) << "frame " << f;
    EXPECT_EQ(observed[f].bg_mean, median) << "frame " << f;
    const bool moving = std::abs(shades[f] - median) >= options.diff_threshold;
    EXPECT_EQ(observed[f].mask, Mask(clip[f].size(), moving ? 1 : 0))
        << "frame " << f;
  }
}

/// One-class dual objective 1/2 a^T Q a for the brute-force check.
double OneClassObjective(const std::vector<Vec>& x, const Vec& a,
                         const KernelParams& kernel) {
  double obj = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    for (size_t j = 0; j < a.size(); ++j) {
      obj += 0.5 * a[i] * a[j] * KernelEval(kernel, x[i], x[j]);
    }
  }
  return obj;
}

TEST(OneClassSmoOptimalityTest, MatchesBruteForceOnTinyProblem) {
  // 3 points, nu such that C = 1/(nu*3); grid-search (a0, a1) with
  // a2 = 1 - a0 - a1 over the feasible simplex.
  const std::vector<Vec> x{{0.0, 0.0}, {1.0, 0.2}, {0.4, 0.9}};
  OneClassSvmOptions options;
  options.nu = 0.6;
  options.kernel.sigma = 0.8;
  options.tolerance = 1e-7;
  Result<OneClassSvmModel> model = OneClassSvmTrainer(options).Train(x);
  ASSERT_TRUE(model.ok());

  const double c = 1.0 / (options.nu * 3);
  double best = 1e300;
  const int kGrid = 300;
  for (int i0 = 0; i0 <= kGrid; ++i0) {
    for (int i1 = 0; i1 <= kGrid; ++i1) {
      Vec a{c * i0 / kGrid, c * i1 / kGrid, 0.0};
      a[2] = 1.0 - a[0] - a[1];
      if (a[2] < 0 || a[2] > c) continue;
      best = std::min(best, OneClassObjective(x, a, options.kernel));
    }
  }

  // Reconstruct the SMO objective from the model's coefficients.
  Vec alpha;
  std::vector<Vec> svs = model->support_vectors();
  double smo_obj = 0;
  for (size_t i = 0; i < svs.size(); ++i) {
    for (size_t j = 0; j < svs.size(); ++j) {
      smo_obj += 0.5 * model->coefficients()[i] * model->coefficients()[j] *
                 KernelEval(options.kernel, svs[i], svs[j]);
    }
  }
  EXPECT_LE(smo_obj, best + 1e-3) << "SMO above the brute-force minimum";
}

TEST(IlluminationDriftTest, BackgroundAdaptsAndTrackingSurvives) {
  // Slow global illumination change must be absorbed by the background
  // model: the vehicle stays segmented throughout a full drift cycle.
  ScenarioSpec spec;
  spec.name = "drift";
  spec.layout = MakeTunnelLayout();
  spec.total_frames = 400;
  spec.spawns = {{20, 0, VehicleType::kCar, 2.0, 220},
                 {180, 1, VehicleType::kSuv, 2.0, 200}};

  TrafficWorld world(spec);
  RenderOptions render;
  render.noise_stddev = 3.0;
  render.illumination_amplitude = 10.0;
  render.illumination_period = 200;
  Renderer renderer(spec.layout, render);
  SegmenterOptions seg;
  BackgroundOptions bg;
  bg.learning_rate = 0.06;  // fast enough to follow the drift
  seg.background = bg;
  VehicleSegmenter segmenter(seg);

  int frames_with_vehicle = 0, detections = 0;
  while (!world.Done()) {
    world.Step();
    const Frame frame = renderer.Render(world.vehicles());
    const auto blobs = segmenter.Process(frame);
    if (world.frame() > 40 && world.ActiveVehicleCount() > 0) {
      // Only count frames where a vehicle is well inside the view.
      bool visible = false;
      for (const auto& v : world.vehicles()) {
        if (v.active() && v.position.x > 30 &&
            v.position.x < spec.layout.width - 30) {
          visible = true;
        }
      }
      if (visible) {
        ++frames_with_vehicle;
        detections += blobs.empty() ? 0 : 1;
      }
    }
  }
  ASSERT_GT(frames_with_vehicle, 100);
  EXPECT_GE(detections, frames_with_vehicle * 9 / 10)
      << "illumination drift broke segmentation";
}

TEST(FlowInvariantTest, NoCollisionsInIncidentFreeTraffic) {
  // Normal car-following must never produce overlapping same-lane bodies.
  TunnelScenarioOptions options;
  options.total_frames = 1200;
  options.min_spawn_gap = 40;  // dense enough to force interactions
  options.max_spawn_gap = 70;
  options.num_wall_crashes = 0;
  options.num_sudden_stops = 0;
  options.num_speeding = 0;
  options.num_uturns = 0;
  const ScenarioSpec scenario = MakeTunnelScenario(options);
  TrafficWorld world(scenario);
  int violations = 0;
  while (!world.Done()) {
    world.Step();
    const auto& vehicles = world.vehicles();
    for (size_t i = 0; i < vehicles.size(); ++i) {
      if (!vehicles[i].active()) continue;
      for (size_t j = i + 1; j < vehicles.size(); ++j) {
        if (!vehicles[j].active()) continue;
        if (vehicles[i].lane_id != vehicles[j].lane_id) continue;
        const double gap =
            std::fabs(vehicles[i].s - vehicles[j].s) -
            (DimsFor(vehicles[i].type).length +
             DimsFor(vehicles[j].type).length) /
                2.0;
        if (gap < -0.5) ++violations;
      }
    }
  }
  EXPECT_EQ(violations, 0) << "car-following produced body overlap";
}

TEST(FlowInvariantTest, SignalsHoldTrafficOutOfTheBox) {
  // At the intersection, lane-following vehicles on red must not enter
  // the conflict box (incidents disabled).
  IntersectionScenarioOptions options;
  options.total_frames = 500;
  options.num_cross_collisions = 0;
  options.num_rear_ends = 0;
  options.num_uturns = 0;
  options.num_speeding = 0;
  const ScenarioSpec scenario = MakeIntersectionScenario(options);
  TrafficWorld world(scenario);
  const BBox box(132, 92, 188, 148);
  int red_entries = 0;
  while (!world.Done()) {
    world.Step();
    const int frame = world.frame() - 1;
    for (const auto& v : world.vehicles()) {
      if (!v.active() || v.mode != MotionMode::kLaneFollow) continue;
      const Lane& lane = scenario.layout.lane(v.lane_id);
      if (lane.signal_group() < 0) continue;
      if (scenario.layout.IsGreen(lane.signal_group(), frame)) continue;
      // On red: a vehicle that had not yet reached the stop line must not
      // be inside the box. (Vehicles already past the line may clear it.)
      if (box.Contains(v.position) && v.s < lane.stop_line_s()) {
        ++red_entries;
      }
    }
  }
  EXPECT_EQ(red_entries, 0);
}

}  // namespace
}  // namespace mivid
