// Golden tests for the paper's Fig. 8 (tunnel) and Fig. 9 (intersection)
// experiments on the vision path: render -> background + SPCPE -> track
// -> windows -> MIL / Weighted_RF feedback rounds; and on the simulator's
// ground-truth tracks (a perfect tracker), which isolates the retrieval
// half: features -> windows -> One-class SVM training and ranking.
//
// Two tiers. The exact values are deterministic at every thread count;
// change them only together with EXPERIMENTS.md, in a reviewed diff that
// says why the rendered pixels or the pipeline changed. The shape
// assertions are the paper's claims and hold whatever the exact values.

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "eval/experiment.h"
#include "trafficsim/renderer.h"
#include "trafficsim/world.h"

namespace mivid {
namespace {

struct Golden {
  size_t windows;
  size_t ts;
  std::vector<double> mil;
  std::vector<double> weighted;
};

const std::vector<double>& Accuracy(const ExperimentResult& result,
                                    const std::string& method) {
  for (const MethodCurve& curve : result.curves) {
    if (curve.method == method) return curve.accuracy;
  }
  ADD_FAILURE() << "no curve for " << method;
  static const std::vector<double> kNone;
  return kNone;
}

void ExpectGoldenAndShape(const ExperimentResult& result,
                          const Golden& golden, bool weighted_drops) {
  EXPECT_EQ(result.num_windows, golden.windows);
  EXPECT_EQ(result.num_ts, golden.ts);
  const std::vector<double>& mil = Accuracy(result, "MIL_OneClassSVM");
  const std::vector<double>& weighted = Accuracy(result, "Weighted_RF");
  ASSERT_EQ(mil.size(), golden.mil.size());
  ASSERT_EQ(weighted.size(), golden.weighted.size());
  for (size_t r = 0; r < mil.size(); ++r) {
    EXPECT_DOUBLE_EQ(mil[r], golden.mil[r]) << "MIL round " << r;
    EXPECT_DOUBLE_EQ(weighted[r], golden.weighted[r]) << "weighted round " << r;
  }

  // The paper's shape: MIL climbs with feedback and ends well above
  // Weighted_RF.
  for (size_t r = 1; r < mil.size(); ++r) {
    EXPECT_GE(mil[r], mil[r - 1]) << "MIL accuracy fell in round " << r;
  }
  EXPECT_GE(mil.back(), weighted.back() + 0.2 - 1e-12);
  // On the intersection clip Weighted_RF degrades right after the
  // initial round.
  if (weighted_drops) {
    EXPECT_LT(weighted[1], weighted[0]);
  }
}

TEST(GoldenCurvesTest, Fig8TunnelVisionPath) {
  ExperimentOptions options;
  options.pipeline = PipelineMode::kVisionTracks;
  Result<ExperimentResult> result =
      RunRfExperiment(MakeTunnelScenario(), options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ExpectGoldenAndShape(result.value(),
                       {72, 72,
                        {0.60, 0.65, 0.80, 0.80, 0.80},
                        {0.60, 0.40, 0.40, 0.40, 0.40}},
                       /*weighted_drops=*/false);
}

TEST(GoldenCurvesTest, Fig9IntersectionVisionPath) {
  ExperimentOptions options;
  options.pipeline = PipelineMode::kVisionTracks;
  options.windows.stride = 1;  // as bench/fig9_intersection_accuracy
  Result<ExperimentResult> result =
      RunRfExperiment(MakeIntersectionScenario(), options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ExpectGoldenAndShape(result.value(),
                       {113, 436,
                        {0.55, 0.80, 0.85, 0.85, 0.85},
                        {0.55, 0.40, 0.40, 0.40, 0.40}},
                       /*weighted_drops=*/true);
}

TEST(GoldenCurvesTest, Fig8TunnelGroundTruthTracks) {
  ExperimentOptions options;
  options.pipeline = PipelineMode::kGroundTruthTracks;
  Result<ExperimentResult> result =
      RunRfExperiment(MakeTunnelScenario(), options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ExpectGoldenAndShape(result.value(),
                       {74, 74,
                        {0.60, 0.75, 0.75, 0.75, 0.75},
                        {0.60, 0.35, 0.35, 0.35, 0.35}},
                       /*weighted_drops=*/false);
}

TEST(GoldenCurvesTest, Fig9IntersectionGroundTruthTracks) {
  ExperimentOptions options;
  options.pipeline = PipelineMode::kGroundTruthTracks;
  options.windows.stride = 1;
  Result<ExperimentResult> result =
      RunRfExperiment(MakeIntersectionScenario(), options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ExpectGoldenAndShape(result.value(),
                       {113, 490,
                        {0.75, 0.80, 0.85, 0.85, 0.85},
                        {0.75, 0.30, 0.35, 0.35, 0.35}},
                       /*weighted_drops=*/true);
}

TEST(GoldenCurvesTest, FirstTunnelFramesRenderUnchanged) {
  // FNV-1a over the pixels of the first 64 rendered Fig. 8 frames. Pins
  // the renderer's noise stream: a change here changes every curve above.
  const ScenarioSpec scenario = MakeTunnelScenario();
  TrafficWorld world(scenario);
  Renderer renderer(world.spec().layout);
  uint64_t hash = 0xcbf29ce484222325ULL;
  for (int f = 0; f < 64; ++f) {
    world.Step();
    const Frame frame = renderer.Render(world.vehicles());
    for (uint8_t p : frame.pixels()) hash = (hash ^ p) * 0x100000001b3ULL;
  }
  EXPECT_EQ(hash, 0x490607016469df6aULL);
}

}  // namespace
}  // namespace mivid
