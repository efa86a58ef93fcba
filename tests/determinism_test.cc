// Determinism regression tests for the parallel execution layer: every
// parallel hot path (Gram construction, SVM training, bag ranking, SPCPE,
// the vision pipeline) must produce bit-identical results at any thread
// count. See docs/performance.md for the guarantee and how it is kept.

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "eval/experiment.h"
#include "retrieval/heuristic.h"
#include "svm/kernel.h"
#include "svm/one_class_svm.h"
#include "trafficsim/scenarios.h"

namespace mivid {
namespace {

std::vector<Vec> RandomPoints(size_t n, size_t dim, uint64_t seed) {
  Rng rng(seed);
  std::vector<Vec> points(n, Vec(dim));
  for (auto& p : points) {
    for (auto& v : p) v = rng.Uniform();
  }
  return points;
}

/// Runs `fn` once at 1 thread and once at 8, restoring the default after.
template <typename Fn>
void AtThreadCounts(const Fn& fn, decltype(fn()) * serial,
                    decltype(fn()) * parallel) {
  SetGlobalThreadCount(1);
  *serial = fn();
  SetGlobalThreadCount(8);
  *parallel = fn();
  SetGlobalThreadCount(0);
}

TEST(DeterminismTest, GramMatrixBitIdenticalAcrossThreadCounts) {
  const auto points = RandomPoints(64, 9, 7);
  for (const KernelType type :
       {KernelType::kRbf, KernelType::kLinear, KernelType::kPoly}) {
    KernelParams params;
    params.type = type;
    auto build = [&] {
      GramMatrix gram(params, points);
      std::vector<double> flat;
      flat.reserve(points.size() * points.size());
      for (size_t i = 0; i < gram.size(); ++i) {
        for (size_t j = 0; j < gram.size(); ++j) flat.push_back(gram.At(i, j));
      }
      return flat;
    };
    std::vector<double> serial, parallel;
    AtThreadCounts(build, &serial, &parallel);
    EXPECT_EQ(serial, parallel) << "kernel type " << static_cast<int>(type);
  }
}

TEST(DeterminismTest, DistanceGramMatchesDirectGram) {
  // MilRfEngine::Learn builds its Gram from PairwiseSquaredDistances (the
  // distances also feed the bandwidth heuristic); it must carry the bits
  // of the Gram built straight from the points, at any thread count.
  const auto points = RandomPoints(48, 9, 21);
  KernelParams params;  // RBF
  auto build = [&] {
    const Matrix d2 = PairwiseSquaredDistances(points);
    EXPECT_EQ(d2.rows(), points.size());
    const GramMatrix from_d2(params, d2);
    const GramMatrix direct(params, points);
    std::vector<double> flat;
    for (size_t i = 0; i < direct.size(); ++i) {
      EXPECT_EQ(d2.At(i, i), 0.0);
      for (size_t j = 0; j < direct.size(); ++j) {
        EXPECT_EQ(d2.At(i, j), d2.At(j, i)) << i << "," << j;
        EXPECT_EQ(from_d2.At(i, j), direct.At(i, j)) << i << "," << j;
        flat.push_back(d2.At(i, j));
      }
    }
    return flat;
  };
  std::vector<double> serial, parallel;
  AtThreadCounts(build, &serial, &parallel);
  EXPECT_EQ(serial, parallel);
}

TEST(DeterminismTest, OneClassSvmTrainingIdenticalAcrossThreadCounts) {
  const auto points = RandomPoints(120, 9, 33);
  OneClassSvmOptions options;
  options.nu = 0.25;
  auto train = [&] {
    auto model = OneClassSvmTrainer(options).Train(points);
    Vec signature{model->rho(),
                  static_cast<double>(model->num_support_vectors()),
                  static_cast<double>(model->iterations_used())};
    for (const double a : model->coefficients()) signature.push_back(a);
    for (const auto& q : RandomPoints(10, 9, 5)) {
      signature.push_back(model->DecisionValue(q));
    }
    return signature;
  };
  Vec serial, parallel;
  AtThreadCounts(train, &serial, &parallel);
  EXPECT_EQ(serial, parallel);
}

TEST(DeterminismTest, ExperimentIdenticalAcrossThreadCounts) {
  // End-to-end through the *vision* pipeline: render -> background ->
  // SPCPE (parallel sweeps) -> parallel per-frame refinement -> tracking
  // -> MIL feedback rounds with parallel Gram/ranking.
  TunnelScenarioOptions scenario_options;
  scenario_options.total_frames = 400;
  scenario_options.num_wall_crashes = 1;
  scenario_options.num_sudden_stops = 1;
  scenario_options.num_speeding = 0;
  scenario_options.num_uturns = 0;
  const ScenarioSpec scenario = MakeTunnelScenario(scenario_options);
  ExperimentOptions options;
  options.pipeline = PipelineMode::kVisionTracks;
  options.feedback_rounds = 2;

  struct Outcome {
    std::vector<std::vector<double>> curves;
    std::vector<int> top20;
    bool operator==(const Outcome&) const = default;
  };
  auto run = [&] {
    Outcome out;
    auto analysis = AnalyzeScenario(scenario, options);
    EXPECT_TRUE(analysis.ok());
    auto result = RunRfExperimentOnAnalysis(*analysis, scenario.name,
                                            scenario.total_frames, options);
    EXPECT_TRUE(result.ok());
    for (const auto& curve : result->curves) {
      out.curves.push_back(curve.accuracy);
    }
    // Top-20 of the final MIL ranking, rebuilt explicitly.
    MilDataset dataset = analysis->dataset;
    MilRfOptions mil = options.mil;
    mil.base_dim = analysis->scaler.dimension();
    MilRfEngine engine(&dataset, mil);
    const EventModel heuristic =
        EventModel::Accident(analysis->scaler.dimension());
    const auto initial =
        HeuristicRanking(dataset, heuristic, mil.base_dim);
    for (size_t i = 0; i < initial.size() && i < 20; ++i) {
      (void)dataset.SetLabel(
          initial[i].bag_id,
          analysis->truth.count(initial[i].bag_id)
              ? analysis->truth.at(initial[i].bag_id)
              : BagLabel::kIrrelevant);
    }
    EXPECT_TRUE(engine.Learn().ok());
    out.top20 = TopIds(engine.Rank(), 20);
    return out;
  };
  Outcome serial, parallel;
  AtThreadCounts(run, &serial, &parallel);
  EXPECT_EQ(serial.curves, parallel.curves);
  EXPECT_EQ(serial.top20, parallel.top20);
  ASSERT_FALSE(serial.curves.empty());
  ASSERT_FALSE(serial.top20.empty());
}

}  // namespace
}  // namespace mivid
