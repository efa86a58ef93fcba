// Tests for trafficsim/: lanes, driver model, world stepping, incidents,
// scenario scripts, renderer.

#include <algorithm>
#include <cmath>
#include <set>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "linalg/simd.h"
#include "trafficsim/renderer.h"
#include "trafficsim/scenarios.h"
#include "trafficsim/world.h"

namespace mivid {
namespace {

TEST(LaneTest, ArclengthParameterization) {
  Lane lane(0, {{0, 0}, {10, 0}, {10, 10}}, 3.0);
  EXPECT_DOUBLE_EQ(lane.Length(), 20.0);
  EXPECT_EQ(lane.PointAt(0), Point2(0, 0));
  EXPECT_EQ(lane.PointAt(5), Point2(5, 0));
  EXPECT_EQ(lane.PointAt(15), Point2(10, 5));
  // Clamps beyond the ends.
  EXPECT_EQ(lane.PointAt(-3), Point2(0, 0));
  EXPECT_EQ(lane.PointAt(99), Point2(10, 10));
}

TEST(LaneTest, HeadingFollowsSegments) {
  Lane lane(0, {{0, 0}, {10, 0}, {10, 10}}, 3.0);
  EXPECT_NEAR(lane.HeadingAt(5), 0.0, 1e-12);
  EXPECT_NEAR(lane.HeadingAt(15), M_PI / 2, 1e-12);
}

TEST(RoadLayoutTest, SignalPhases) {
  RoadLayout layout;
  layout.num_signal_groups = 2;
  layout.signal_phase_frames = 100;
  EXPECT_TRUE(layout.IsGreen(0, 0));
  EXPECT_TRUE(layout.IsGreen(0, 99));
  EXPECT_FALSE(layout.IsGreen(0, 100));
  EXPECT_TRUE(layout.IsGreen(1, 100));
  EXPECT_TRUE(layout.IsGreen(0, 200));  // cycle repeats
  EXPECT_TRUE(layout.IsGreen(-1, 50));  // uncontrolled always green
}

TEST(VehicleTest, DimsAndMbr) {
  VehicleState v;
  v.type = VehicleType::kCar;
  v.position = {100, 100};
  v.heading = 0.0;
  const BBox mbr = v.Mbr();
  EXPECT_NEAR(mbr.Width(), 16.0, 1e-9);
  EXPECT_NEAR(mbr.Height(), 8.0, 1e-9);
  v.heading = M_PI / 2;
  const BBox rotated = v.Mbr();
  EXPECT_NEAR(rotated.Width(), 8.0, 1e-9);
  EXPECT_NEAR(rotated.Height(), 16.0, 1e-9);
}

TEST(VehicleTest, TypeNames) {
  EXPECT_STREQ(VehicleTypeName(VehicleType::kCar), "car");
  EXPECT_STREQ(VehicleTypeName(VehicleType::kTruck), "truck");
  EXPECT_GT(DimsFor(VehicleType::kTruck).length,
            DimsFor(VehicleType::kCar).length);
}

TEST(DriverTest, FreeRoadApproachesDesiredSpeed) {
  VehicleState v;
  v.speed = 0.5;
  DriverParams params;
  params.desired_speed = 3.0;
  params.speed_jitter = 0.0;
  DriverView view;  // empty road
  Lane lane(0, {{0, 0}, {1000, 0}}, 3.0);
  v.mode = MotionMode::kLaneFollow;
  for (int i = 0; i < 300; ++i) AdvanceLaneFollow(&v, lane, params, view, nullptr);
  EXPECT_NEAR(v.speed, 3.0, 0.05);
}

TEST(DriverTest, BrakesBehindSlowLeader) {
  VehicleState v;
  v.speed = 3.0;
  DriverParams params;
  params.desired_speed = 3.0;
  DriverView view;
  view.has_leader = true;
  view.leader_gap = 10.0;
  view.leader_speed = 0.5;
  const double a = ComputeAcceleration(v, params, view);
  EXPECT_LT(a, 0.0);
}

TEST(DriverTest, StopsAtRedLight) {
  VehicleState v;
  v.speed = 2.5;
  v.mode = MotionMode::kLaneFollow;
  DriverParams params;
  params.desired_speed = 2.5;
  params.speed_jitter = 0.0;
  params.wander_accel = 0.0;
  Lane lane(0, {{0, 0}, {500, 0}}, 2.5);
  for (int i = 0; i < 200; ++i) {
    DriverView view;
    const double gap = 200.0 - v.s;
    if (gap > 0) {
      view.has_red_stop_line = true;
      view.stop_line_gap = gap;
    }
    AdvanceLaneFollow(&v, lane, params, view, nullptr);
  }
  EXPECT_LT(v.speed, 0.2);
  EXPECT_LT(v.s, 201.0);
  EXPECT_GT(v.s, 150.0);  // stopped near, not far before, the line
}

TEST(DriverTest, HardDecelerationIsBounded) {
  VehicleState v;
  v.speed = 3.0;
  DriverParams params;
  DriverView view;
  view.has_leader = true;
  view.leader_gap = 0.5;
  view.leader_speed = 0.0;
  EXPECT_GE(ComputeAcceleration(v, params, view), -params.hard_decel - 1e-12);
}

TEST(IncidentTest, TypeClassification) {
  EXPECT_TRUE(IsAccidentType(IncidentType::kWallCrash));
  EXPECT_TRUE(IsAccidentType(IncidentType::kSuddenStop));
  EXPECT_TRUE(IsAccidentType(IncidentType::kRearEnd));
  EXPECT_TRUE(IsAccidentType(IncidentType::kCrossCollision));
  EXPECT_FALSE(IsAccidentType(IncidentType::kUTurn));
  EXPECT_FALSE(IsAccidentType(IncidentType::kSpeeding));
  EXPECT_STREQ(IncidentTypeName(IncidentType::kRearEnd), "rear_end");
}

TEST(IncidentTest, RecordOverlap) {
  IncidentRecord rec;
  rec.begin_frame = 100;
  rec.end_frame = 150;
  EXPECT_TRUE(rec.Overlaps(150, 200));
  EXPECT_TRUE(rec.Overlaps(0, 100));
  EXPECT_TRUE(rec.Overlaps(120, 130));
  EXPECT_FALSE(rec.Overlaps(151, 200));
  EXPECT_FALSE(rec.Overlaps(0, 99));
  IncidentRecord unstarted;
  EXPECT_FALSE(unstarted.Overlaps(0, 1000000));
}

TEST(WorldTest, SpawnsVehiclesOnSchedule) {
  ScenarioSpec spec;
  spec.layout = MakeTunnelLayout();
  spec.total_frames = 50;
  spec.spawns = {{0, 0, VehicleType::kCar, 3.0, 200},
                 {10, 1, VehicleType::kSuv, 3.0, 210}};
  TrafficWorld world(spec);
  world.Step();
  EXPECT_EQ(world.ActiveVehicleCount(), 1);
  for (int i = 0; i < 10; ++i) world.Step();
  EXPECT_EQ(world.ActiveVehicleCount(), 2);
}

TEST(WorldTest, VehiclesMoveForwardAndDespawn) {
  ScenarioSpec spec;
  spec.layout = MakeTunnelLayout();
  spec.total_frames = 400;
  spec.spawns = {{0, 0, VehicleType::kCar, 3.0, 200}};
  TrafficWorld world(spec);
  GroundTruth gt = world.Run();
  ASSERT_EQ(gt.tracks.size(), 1u);
  const Track& t = gt.tracks[0];
  ASSERT_GE(t.points.size(), 50u);
  // Monotonically non-decreasing x (eastbound lane).
  for (size_t i = 1; i < t.points.size(); ++i) {
    EXPECT_GE(t.points[i].centroid.x + 1e-9, t.points[i - 1].centroid.x);
  }
  // Despawned before the end: last frame well before total_frames.
  EXPECT_LT(t.last_frame(), 300);
}

TEST(WorldTest, GroundTruthOnlyRecordsVisibleFrames) {
  ScenarioSpec spec;
  spec.layout = MakeTunnelLayout();
  spec.total_frames = 100;
  spec.spawns = {{0, 0, VehicleType::kCar, 3.0, 200}};
  TrafficWorld world(spec);
  GroundTruth gt = world.Run();
  for (const auto& p : gt.tracks[0].points) {
    EXPECT_GE(p.bbox.max_x, 0.0);
    EXPECT_LE(p.bbox.min_x, spec.layout.width);
  }
}

TEST(WorldTest, SuddenStopIncidentRunsAndResumes) {
  ScenarioSpec spec;
  spec.layout = MakeTunnelLayout();
  spec.total_frames = 600;
  spec.spawns = {{0, 0, VehicleType::kCar, 3.0, 200}};
  IncidentSpec inc;
  inc.type = IncidentType::kSuddenStop;
  inc.trigger_frame = 60;
  inc.hold_frames = 20;
  spec.incidents = {inc};
  TrafficWorld world(spec);
  GroundTruth gt = world.Run();
  ASSERT_EQ(gt.incidents.size(), 1u);
  const IncidentRecord& rec = gt.incidents[0];
  EXPECT_EQ(rec.type, IncidentType::kSuddenStop);
  EXPECT_GE(rec.begin_frame, 60);
  EXPECT_GT(rec.end_frame, rec.begin_frame);
  ASSERT_EQ(rec.vehicle_ids.size(), 1u);

  // The vehicle actually came to a stop: consecutive centroids repeat.
  const Track& t = gt.tracks[0];
  bool stopped = false;
  for (size_t i = 1; i < t.points.size(); ++i) {
    if (t.points[i].frame > rec.begin_frame &&
        t.points[i].frame < rec.end_frame &&
        Distance(t.points[i].centroid, t.points[i - 1].centroid) < 0.01) {
      stopped = true;
    }
  }
  EXPECT_TRUE(stopped);
}

TEST(WorldTest, WallCrashEndsAgainstWall) {
  ScenarioSpec spec;
  spec.layout = MakeTunnelLayout();
  spec.total_frames = 600;
  spec.spawns = {{0, 0, VehicleType::kCar, 3.0, 200}};
  IncidentSpec inc;
  inc.type = IncidentType::kWallCrash;
  inc.trigger_frame = 50;
  inc.hold_frames = 20;
  spec.incidents = {inc};
  TrafficWorld world(spec);
  GroundTruth gt = world.Run();
  ASSERT_EQ(gt.incidents.size(), 1u);
  EXPECT_EQ(gt.incidents[0].type, IncidentType::kWallCrash);
  // Final recorded position is near/inside a wall band.
  const Track& t = gt.tracks[0];
  const Point2 last = t.points.back().centroid;
  bool near_wall = false;
  for (const auto& wall : spec.layout.walls) {
    if (wall.Inflated(12).Contains(last)) near_wall = true;
  }
  EXPECT_TRUE(near_wall);
}

TEST(WorldTest, UTurnReversesDirection) {
  ScenarioSpec spec;
  spec.layout = MakeTunnelLayout();
  spec.total_frames = 600;
  spec.spawns = {{0, 0, VehicleType::kCar, 3.0, 200}};
  IncidentSpec inc;
  inc.type = IncidentType::kUTurn;
  inc.trigger_frame = 60;
  spec.incidents = {inc};
  TrafficWorld world(spec);
  GroundTruth gt = world.Run();
  ASSERT_EQ(gt.incidents.size(), 1u);
  const Track& t = gt.tracks[0];
  // x eventually decreases (vehicle heads back west).
  double max_x = 0;
  bool reversed = false;
  for (const auto& p : t.points) {
    max_x = std::max(max_x, p.centroid.x);
    if (p.centroid.x < max_x - 30) reversed = true;
  }
  EXPECT_TRUE(reversed);
}

TEST(WorldTest, CrossCollisionStopsBothVehicles) {
  ScenarioSpec spec;
  spec.layout = MakeIntersectionLayout();
  spec.total_frames = 500;
  // One eastbound runner, one southbound victim timed to be approaching.
  spec.spawns = {{0, 0, VehicleType::kCar, 2.5, 200},
                 {0, 2, VehicleType::kSuv, 2.4, 210}};
  IncidentSpec inc;
  inc.type = IncidentType::kCrossCollision;
  inc.trigger_frame = 20;
  inc.hold_frames = 25;
  spec.incidents = {inc};
  TrafficWorld world(spec);
  GroundTruth gt = world.Run();
  ASSERT_EQ(gt.incidents.size(), 1u);
  const IncidentRecord& rec = gt.incidents[0];
  EXPECT_EQ(rec.vehicle_ids.size(), 2u);
  // Both tracks end near the conflict area (center of the scene).
  int ended_near_center = 0;
  for (const auto& t : gt.tracks) {
    const Point2 last = t.points.back().centroid;
    if (Distance(last, {160, 120}) < 60) ++ended_near_center;
  }
  EXPECT_EQ(ended_near_center, 2);
}

TEST(WorldTest, VehicleInIncidentQuery) {
  GroundTruth gt;
  IncidentRecord rec;
  rec.type = IncidentType::kRearEnd;
  rec.begin_frame = 10;
  rec.end_frame = 20;
  rec.vehicle_ids = {3, 4};
  gt.incidents = {rec};
  EXPECT_TRUE(gt.VehicleInIncident(3, 15, 25, {IncidentType::kRearEnd}));
  EXPECT_FALSE(gt.VehicleInIncident(5, 15, 25, {IncidentType::kRearEnd}));
  EXPECT_FALSE(gt.VehicleInIncident(3, 21, 25, {IncidentType::kRearEnd}));
  EXPECT_FALSE(gt.VehicleInIncident(3, 15, 25, {IncidentType::kUTurn}));
}

TEST(ScenarioTest, TunnelScriptIsDeterministic) {
  const ScenarioSpec a = MakeTunnelScenario();
  const ScenarioSpec b = MakeTunnelScenario();
  ASSERT_EQ(a.spawns.size(), b.spawns.size());
  for (size_t i = 0; i < a.spawns.size(); ++i) {
    EXPECT_EQ(a.spawns[i].frame, b.spawns[i].frame);
    EXPECT_EQ(a.spawns[i].lane_id, b.spawns[i].lane_id);
  }
  ASSERT_EQ(a.incidents.size(), b.incidents.size());
  TrafficWorld wa(a), wb(b);
  const GroundTruth ga = wa.Run(), gb = wb.Run();
  ASSERT_EQ(ga.tracks.size(), gb.tracks.size());
  ASSERT_EQ(ga.incidents.size(), gb.incidents.size());
  for (size_t i = 0; i < ga.incidents.size(); ++i) {
    EXPECT_EQ(ga.incidents[i].begin_frame, gb.incidents[i].begin_frame);
  }
}

TEST(ScenarioTest, TunnelMatchesPaperScale) {
  const ScenarioSpec spec = MakeTunnelScenario();
  EXPECT_EQ(spec.total_frames, 2504);  // paper clip 1
  EXPECT_GE(spec.spawns.size(), 8u);
  EXPECT_GE(spec.incidents.size(), 6u);
}

TEST(ScenarioTest, IntersectionMatchesPaperScale) {
  const ScenarioSpec spec = MakeIntersectionScenario();
  EXPECT_EQ(spec.total_frames, 592);  // paper clip 2
  EXPECT_GE(spec.spawns.size(), 10u);
  EXPECT_EQ(spec.layout.num_signal_groups, 2);
}

TEST(ScenarioTest, IncidentsSortedByTrigger) {
  const ScenarioSpec spec = MakeIntersectionScenario();
  for (size_t i = 1; i < spec.incidents.size(); ++i) {
    EXPECT_LE(spec.incidents[i - 1].trigger_frame,
              spec.incidents[i].trigger_frame);
  }
}

TEST(RendererTest, BackgroundContainsRoadAndWalls) {
  const RoadLayout layout = MakeTunnelLayout();
  Renderer renderer(layout, RenderOptions{0.0, 7, false});
  const Frame& bg = renderer.background();
  EXPECT_EQ(bg.width(), layout.width);
  // Road band is road_shade; wall band brighter.
  EXPECT_EQ(bg.At(160, 120), layout.road_shade);
  EXPECT_EQ(bg.At(160, 90), 150);  // wall cladding
}

TEST(RendererTest, VehiclesAppearAtTheirPosition) {
  const RoadLayout layout = MakeTunnelLayout();
  Renderer renderer(layout, RenderOptions{0.0, 7, false});
  VehicleState v;
  v.id = 0;
  v.type = VehicleType::kCar;
  v.shade = 222;
  v.mode = MotionMode::kLaneFollow;
  v.position = {160, 110};
  v.heading = 0;
  const Frame frame = renderer.Render({v});
  EXPECT_EQ(frame.At(160, 110), 222);
  EXPECT_NE(frame.At(160, 130), 222);
}

TEST(RendererTest, NoiseIsDeterministicPerRenderer) {
  const RoadLayout layout = MakeTunnelLayout();
  Renderer r1(layout, RenderOptions{4.0, 11, true});
  Renderer r2(layout, RenderOptions{4.0, 11, true});
  const Frame f1 = r1.Render({});
  const Frame f2 = r2.Render({});
  EXPECT_EQ(f1.pixels(), f2.pixels());
}

TEST(RngSkipGaussiansTest, MatchesDrawingEveryValue) {
  for (const bool cached : {false, true}) {
    for (const size_t n : {0u, 1u, 2u, 3u, 76800u, 76801u}) {
      Rng skipped(99);
      if (cached) (void)skipped.Gaussian();  // leaves the pair's sine cached
      Rng drawn = skipped;
      skipped.SkipGaussians(n);
      for (size_t i = 0; i < n; ++i) (void)drawn.Gaussian();
      // Same cache state and same xoshiro state: every later draw agrees.
      for (int i = 0; i < 5; ++i) {
        ASSERT_EQ(skipped.Gaussian(), drawn.Gaussian())
            << "cached=" << cached << " n=" << n << " draw " << i;
      }
      EXPECT_EQ(skipped.Next(), drawn.Next()) << "cached=" << cached
                                              << " n=" << n;
    }
  }
}

TEST(RngJumpTest, JumpEqualsSteppingAndJumpsCompose) {
  for (const uint64_t steps : {0u, 1u, 2u, 63u, 64u, 19200u, 76800u}) {
    const RngJump jump(steps);
    EXPECT_EQ(jump.steps(), steps);
    for (uint64_t seed = 1; seed <= 8; ++seed) {
      Rng jumped(seed * 7919);
      Rng stepped = jumped;
      jumped.Jump(jump);
      for (uint64_t i = 0; i < steps; ++i) (void)stepped.Next();
      EXPECT_EQ(jumped.state(), stepped.state())
          << "steps " << steps << " seed " << seed;
      EXPECT_EQ(jumped.Next(), stepped.Next());
    }
  }
  // Two jumps in a row, and their product, equal one jump by the sum.
  const RngJump a(19200), b(63), sum(19263);
  const RngJump ab = a.Then(b);
  EXPECT_EQ(ab.steps(), 19263u);
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    Rng twice(seed), once(seed), product(seed);
    twice.Jump(a);
    twice.Jump(b);
    once.Jump(sum);
    product.Jump(ab);
    EXPECT_EQ(twice.state(), once.state()) << "seed " << seed;
    EXPECT_EQ(product.state(), once.state()) << "seed " << seed;
  }
  // A jump moves the raw stream and leaves a cached Gaussian cached.
  Rng cached(5);
  (void)cached.Gaussian();  // caches the pair's sine
  Rng stepped = cached;
  cached.Jump(a);
  for (uint64_t i = 0; i < a.steps(); ++i) (void)stepped.Next();
  EXPECT_TRUE(cached.has_cached_gaussian());
  EXPECT_TRUE(cached == stepped);
}

TEST(RngJumpTest, CachedJumpIsBuiltOncePerCount) {
  const RngJump& jump = RngJump::Cached(76800);
  EXPECT_EQ(&RngJump::Cached(76800), &jump);
  EXPECT_EQ(jump.steps(), 76800u);
  EXPECT_NE(&RngJump::Cached(19200), &jump);
}

/// A tunnel layout cropped to an odd pixel count, so each frame draws an
/// odd number of Gaussians and the cached second value carries into the
/// next frame.
RoadLayout OddLayout() {
  RoadLayout layout = MakeTunnelLayout();
  layout.width = 161;
  layout.height = 121;
  return layout;
}

/// A tunnel layout cropped to an even pixel count whose pairs split into
/// four lanes (400 pairs each), so Prepare jumps and Run draws in lanes.
RoadLayout EvenLayout() {
  RoadLayout layout = MakeTunnelLayout();
  layout.width = 64;
  layout.height = 50;
  return layout;
}

/// Two vehicles crossing the frame; frame `f`'s snapshot.
std::vector<VehicleState> MovingVehicles(int f) {
  VehicleState a;
  a.id = 0;
  a.shade = 220;
  a.position = {10.0 + 1.7 * f, 60};
  VehicleState b;
  b.id = 1;
  b.type = VehicleType::kTruck;
  b.shade = 40;
  b.position = {150.0 - 1.3 * f, 70};
  b.heading = 0.2;
  VehicleState gone;  // inactive vehicles are never drawn
  gone.mode = MotionMode::kInactive;
  gone.position = {80, 60};
  return {a, gone, b};
}

TEST(RendererTest, PreparedFramesMatchSequentialRenderInAnyOrder) {
  RenderOptions options;
  options.illumination_amplitude = 9.0;
  options.illumination_period = 17;
  const RoadLayout layout = OddLayout();
  ASSERT_EQ(layout.width * layout.height % 2, 1);
  constexpr int kFrames = 24;

  // Reference: vehicles drawn noise-free, then the illumination and one
  // continuous Gaussian stream applied pixel by pixel in frame order.
  RenderOptions clean;
  clean.draw_noise = false;
  Renderer drawer(layout, clean);
  Rng stream(options.noise_seed);
  std::vector<Frame> expected;
  for (int f = 0; f < kFrames; ++f) {
    Frame frame = drawer.Render(MovingVehicles(f));
    const double illumination =
        options.illumination_amplitude *
        std::sin(2.0 * M_PI * f / options.illumination_period);
    for (auto& p : frame.pixels()) {
      p = static_cast<uint8_t>(std::clamp(
          p + illumination + stream.Gaussian(0, options.noise_stddev), 0.0,
          255.0));
    }
    expected.push_back(std::move(frame));
  }

  Renderer serial(layout, options);
  for (int f = 0; f < kFrames; ++f) {
    EXPECT_EQ(serial.Render(MovingVehicles(f)).pixels(), expected[f].pixels())
        << "serial " << f;
  }

  Renderer reversed(layout, options);
  Renderer parallel(layout, options);
  std::vector<RenderJob> jobs;
  std::vector<RenderJob> parallel_jobs;
  for (int f = 0; f < kFrames; ++f) {
    jobs.push_back(reversed.Prepare(MovingVehicles(f)));
    parallel_jobs.push_back(parallel.Prepare(MovingVehicles(f)));
  }
  std::vector<Frame> frames(kFrames);
  for (int f = kFrames - 1; f >= 0; --f) reversed.Run(jobs[f], &frames[f]);
  for (int f = 0; f < kFrames; ++f) {
    EXPECT_EQ(frames[f].pixels(), expected[f].pixels()) << "reverse " << f;
  }

  SetGlobalThreadCount(4);
  std::vector<Frame> parallel_frames(kFrames);
  ParallelFor(kFrames, 1, [&](size_t begin, size_t end) {
    for (size_t f = begin; f < end; ++f) {
      parallel.Run(parallel_jobs[f], &parallel_frames[f]);
    }
  });
  SetGlobalThreadCount(0);
  for (int f = 0; f < kFrames; ++f) {
    EXPECT_EQ(parallel_frames[f].pixels(), expected[f].pixels())
        << "parallel " << f;
  }

  // The stream continues where the prepared frames left it.
  EXPECT_EQ(reversed.Render(MovingVehicles(kFrames)).pixels(),
            serial.Render(MovingVehicles(kFrames)).pixels());
}

/// Restores native SIMD dispatch however a test leaves the tier.
class TierGuard {
 public:
  ~TierGuard() { SetSimdTier(-1); }
};

/// The SIMD tiers this host can run.
std::vector<SimdTier> AvailableTiers() {
  std::vector<SimdTier> tiers = {SimdTier::kScalar};
  if (Avx2Available()) tiers.push_back(SimdTier::kAvx2);
  return tiers;
}

/// The renderer's definition of frames 0..count-1 (vehicles of frame f:
/// MovingVehicles(vehicle_step * f)): the noise-free drawing, then the
/// illumination and, with noise on, one Gaussian() call per pixel from the
/// single stream `*stream`.
std::vector<Frame> PerPixelReference(const RoadLayout& layout,
                                     const RenderOptions& options, int count,
                                     int vehicle_step, Rng* stream) {
  RenderOptions clean;
  clean.draw_noise = false;
  Renderer drawer(layout, clean);
  const bool noise = options.draw_noise && options.noise_stddev > 0;
  std::vector<Frame> expected;
  for (int f = 0; f < count; ++f) {
    Frame frame = drawer.Render(MovingVehicles(vehicle_step * f));
    const double illumination =
        options.illumination_amplitude *
        std::sin(2.0 * M_PI * f / options.illumination_period);
    for (auto& p : frame.pixels()) {
      double v = p + illumination;
      if (noise) v += stream->Gaussian(0, options.noise_stddev);
      p = static_cast<uint8_t>(std::clamp(v, 0.0, 255.0));
    }
    expected.push_back(std::move(frame));
  }
  return expected;
}

TEST(RendererNoiseTest, RunMatchesPerPixelGaussianReference) {
  // Odd pixel count: frames 1 and 3 start on the cached second value of
  // the previous frame's last pair and end on an unpaired draw. Both
  // counts: every frame after the first starts where Prepare's jump put
  // it, and Run draws its pairs in four lanes. Frames go through Prepare
  // and Run only, so no Resync can repair a wrong jump.
  constexpr int kFrames = 4;
  TierGuard guard;
  for (const RoadLayout& layout : {OddLayout(), EvenLayout()}) {
    for (const double stddev : {0.5, 6.0, 40.0}) {
      for (const bool noise : {true, false}) {
        RenderOptions options;
        options.noise_stddev = stddev;
        options.draw_noise = noise;
        options.illumination_amplitude = 7.5;
        options.illumination_period = 5;
        Rng stream(options.noise_seed);
        const std::vector<Frame> expected =
            PerPixelReference(layout, options, kFrames + 1, 3, &stream);
        for (const SimdTier tier : AvailableTiers()) {
          SetSimdTier(static_cast<int>(tier));
          Renderer renderer(layout, options);
          std::vector<RenderJob> jobs;
          for (int f = 0; f < kFrames; ++f) {
            jobs.push_back(renderer.Prepare(MovingVehicles(3 * f)));
          }
          for (int f = 0; f < kFrames; ++f) {
            Frame frame;
            const Rng end = renderer.Run(jobs[f], &frame);
            EXPECT_EQ(frame.pixels(), expected[f].pixels())
                << "width " << layout.width << " stddev " << stddev
                << " noise " << noise << " tier " << SimdTierName(tier)
                << " frame " << f;
            if (f + 1 < kFrames) {
              EXPECT_TRUE(end == jobs[f + 1].noise) << "frame " << f;
            }
          }
          // Render continues the stream after the prepared frames.
          EXPECT_EQ(renderer.Render(MovingVehicles(3 * kFrames)).pixels(),
                    expected[kFrames].pixels());
        }
      }
    }
  }
}

/// The state one xoshiro256** step before `s`: Next() from the result
/// returns to `s`.
RngState StepBack(const RngState& s) {
  const uint64_t x = (s[3] >> 45) | (s[3] << 19);  // s3 ^ s1 before the step
  const uint64_t s0 = s[0] ^ x;
  const uint64_t y = s[1] ^ s[2];  // s1 ^ (s1 << 17)
  const uint64_t s1 = y ^ (y << 17) ^ (y << 34) ^ (y << 51);
  const uint64_t s2 = s[2] ^ s0 ^ (s1 << 17);
  return {s0, s1, s2, x ^ s1};
}

/// A stream whose draw number `draw` (0-based) is 0: xoshiro256** outputs
/// 0 from any state with s[1] == 0.
Rng StreamWithZeroDraw(size_t draw) {
  RngState state = {0x0123456789abcdefULL, 0, 0xfedcba9876543210ULL,
                    0x0f1e2d3c4b5a6978ULL};
  for (size_t i = 0; i < draw; ++i) state = StepBack(state);
  Rng stream;
  stream.set_state(state);
  return stream;
}

TEST(RendererNoiseTest, RejectedLaneDrawFallsBackToTheSerialStream) {
  // 1600 pairs: four lanes of 400. A zero u1 (draw 2p of pair p) is
  // rejected and redrawn, shifting every later draw of the frame.
  const RoadLayout layout = EvenLayout();
  constexpr size_t kLanePairs = 400;
  RenderOptions options;
  options.illumination_amplitude = 7.5;
  options.illumination_period = 5;
  const Renderer renderer(layout, options);
  TierGuard guard;
  for (const size_t zero_draw :
       {size_t{0}, 2 * (2 * kLanePairs + 37), 2 * (4 * kLanePairs - 1),
        2 * (kLanePairs + 5) + 1}) {
    const Rng start = StreamWithZeroDraw(zero_draw);
    Rng probe = start;
    for (size_t i = 0; i < zero_draw; ++i) (void)probe.Next();
    ASSERT_EQ(probe.Next(), 0u);
    Rng stream = start;
    const std::vector<Frame> expected =
        PerPixelReference(layout, options, 1, 1, &stream);
    for (const SimdTier tier : AvailableTiers()) {
      SetSimdTier(static_cast<int>(tier));
      RenderJob job;
      job.vehicles = MovingVehicles(0);
      job.noise = start;
      Frame frame;
      const Rng end = renderer.Run(job, &frame);
      EXPECT_EQ(frame.pixels(), expected[0].pixels())
          << "zero draw " << zero_draw << " tier " << SimdTierName(tier);
      EXPECT_TRUE(end == stream)
          << "zero draw " << zero_draw << " tier " << SimdTierName(tier);
    }
  }
}

/// A seed whose xoshiro state has s[1] == 0 (SplitMix64 maps
/// seed + 2 * 0x9e3779b97f4a7c15 to s[1], and only 0 to 0): the stream's
/// first draw, the first frame's first u1, is 0 and rejected.
constexpr uint64_t kRejectingSeed = 0 - 2 * 0x9e3779b97f4a7c15ULL;

TEST(RendererNoiseTest, ResyncRebasesEveryLaterFrameAfterARejection) {
  const RoadLayout layout = EvenLayout();
  RenderOptions options;
  options.noise_seed = kRejectingSeed;
  options.illumination_amplitude = 7.5;
  options.illumination_period = 5;
  ASSERT_EQ(Rng(kRejectingSeed).state()[1], 0u);
  constexpr int kBatch = 6;
  constexpr int kLater = 5;
  constexpr int kFrames = kBatch + kLater;
  Rng stream(options.noise_seed);
  const std::vector<Frame> expected =
      PerPixelReference(layout, options, kFrames + 1, 1, &stream);

  // Render: frame 0 falls back, and every later frame starts after it.
  Renderer serial(layout, options);
  for (int f = 0; f < kFrames; ++f) {
    EXPECT_EQ(serial.Render(MovingVehicles(f)).pixels(), expected[f].pixels())
        << "serial " << f;
  }

  // A batch as VisionTracks runs it: the next batch is prepared while this
  // one renders, so Resync must re-base both.
  for (const int threads : {1, 2, 4}) {
    SetGlobalThreadCount(threads);
    Renderer renderer(layout, options);
    std::vector<RenderJob> jobs, later;
    for (int f = 0; f < kBatch; ++f) {
      jobs.push_back(renderer.Prepare(MovingVehicles(f)));
    }
    std::vector<Frame> frames(kFrames);
    std::vector<Frame*> out;
    for (Frame& frame : frames) out.push_back(&frame);
    std::vector<Rng> ends(kFrames);
    ParallelFor(kBatch + 1, 1, [&](size_t begin, size_t end) {
      for (size_t i = begin; i < end; ++i) {
        if (i == 0) {
          for (int f = kBatch; f < kFrames; ++f) {
            later.push_back(renderer.Prepare(MovingVehicles(f)));
          }
        } else {
          ends[i - 1] = renderer.Run(jobs[i - 1], out[i - 1]);
        }
      }
    });
    EXPECT_EQ(renderer.Resync(jobs, std::span(ends).first(kBatch),
                              std::span(out).first(kBatch), later),
              1u);
    ParallelFor(kLater, 1, [&](size_t begin, size_t end) {
      for (size_t i = begin; i < end; ++i) {
        ends[kBatch + i] = renderer.Run(later[i], out[kBatch + i]);
      }
    });
    EXPECT_EQ(renderer.Resync(later, std::span(ends).subspan(kBatch),
                              std::span(out).subspan(kBatch), {}),
              0u);
    for (int f = 0; f < kFrames; ++f) {
      EXPECT_EQ(frames[f].pixels(), expected[f].pixels())
          << "threads " << threads << " frame " << f;
    }
    EXPECT_EQ(renderer.Render(MovingVehicles(kFrames)).pixels(),
              expected[kFrames].pixels())
        << "threads " << threads;
  }
  SetGlobalThreadCount(0);
}

TEST(RendererNoiseTest, QuantizeFallsBackToExactPairsWithinTheMargin) {
  // Approximations off by up to 0.9 margin in pixel units must still
  // give the exact pairs' bytes. A wide margin makes many values land
  // near a boundary, where only the exact fallback gets them right.
  constexpr size_t kPairs = 3000;
  constexpr double kIllumination = 3.7;
  Rng rng(31);
  std::vector<double> u1(kPairs), u2(kPairs);
  rng.BoxMullerUniforms(kPairs, u1.data(), u2.data());
  std::vector<uint8_t> background(2 * kPairs);
  for (auto& p : background) p = static_cast<uint8_t>(rng.UniformInt(0, 255));
  for (const double stddev : {0.5, 6.0, 40.0}) {
    for (const double margin : {0.3, 1e-3}) {
      std::vector<uint8_t> expected = background;
      std::vector<double> g_cos(kPairs), g_sin(kPairs);
      for (size_t i = 0; i < kPairs; ++i) {
        double gc, gs;
        Rng::BoxMullerPair(u1[i], u2[i], &gc, &gs);
        for (int k = 0; k < 2; ++k) {
          uint8_t& p = expected[2 * i + k];
          double v = p + kIllumination;
          v += 0.0 + stddev * (k == 0 ? gc : gs);
          p = static_cast<uint8_t>(std::clamp(v, 0.0, 255.0));
        }
        const double shift = 0.9 * margin / stddev;
        g_cos[i] = gc + (rng.Bernoulli(0.5) ? shift : -shift);
        g_sin[i] = gs + (rng.Bernoulli(0.5) ? shift : -shift);
      }
      std::vector<uint8_t> pixels = background;
      const size_t exact = render_internal::QuantizeNoisyPairs(
          u1.data(), u2.data(), g_cos.data(), g_sin.data(), kPairs,
          kIllumination, stddev, margin, pixels.data());
      EXPECT_EQ(pixels, expected) << "stddev " << stddev << " margin "
                                  << margin;
      EXPECT_GT(exact, 0u);
      EXPECT_LT(exact, kPairs);
    }
  }
}

}  // namespace
}  // namespace mivid
