// Tests for mil/mi_svm and mil/diverse_density: the MIL baselines.

#include <set>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "eval/metrics.h"
#include "mil/diverse_density.h"
#include "mil/mi_svm.h"
#include "retrieval/engine_registry.h"

namespace mivid {
namespace {

/// Synthetic MIL corpus: 9-dim instances; bags in `hot` hide one instance
/// near the "concept" (0.8, 0.7, 0.6 at checkpoint 2), everything else is
/// near-zero noise.
MilDataset MakeCorpus(int n_bags, const std::set<int>& hot, uint64_t seed) {
  Rng rng(seed);
  MilDataset ds;
  for (int b = 0; b < n_bags; ++b) {
    MilBag bag;
    bag.id = b;
    const int n_inst = 2 + static_cast<int>(rng.UniformInt(0, 1));
    for (int i = 0; i < n_inst; ++i) {
      MilInstance inst;
      inst.bag_id = b;
      inst.instance_id = i;
      inst.features.assign(9, 0.0);
      for (auto& v : inst.features) v = std::fabs(rng.Gaussian(0.05, 0.04));
      if (hot.count(b) && i == 0) {
        inst.features[3] = 0.8 + rng.Uniform(-0.05, 0.05);
        inst.features[4] = 0.7 + rng.Uniform(-0.05, 0.05);
        inst.features[5] = 0.6 + rng.Uniform(-0.05, 0.05);
      }
      inst.raw_features = inst.features;
      bag.instances.push_back(std::move(inst));
    }
    ds.AddBag(std::move(bag));
  }
  return ds;
}

std::map<int, BagLabel> Truth(int n_bags, const std::set<int>& hot) {
  std::map<int, BagLabel> truth;
  for (int b = 0; b < n_bags; ++b) {
    truth[b] = hot.count(b) ? BagLabel::kRelevant : BagLabel::kIrrelevant;
  }
  return truth;
}

TEST(MiSvmTest, RequiresBothLabelKinds) {
  MilDataset ds = MakeCorpus(10, {1, 2}, 3);
  MiSvmEngine engine(&ds, MiSvmOptions{});
  EXPECT_TRUE(engine.Learn().IsFailedPrecondition());
  (void)ds.SetLabel(1, BagLabel::kRelevant);
  EXPECT_TRUE(engine.Learn().IsFailedPrecondition());  // still no negative
  (void)ds.SetLabel(0, BagLabel::kIrrelevant);
  EXPECT_TRUE(engine.Learn().ok());
  EXPECT_TRUE(engine.trained());
}

TEST(MiSvmTest, RanksHiddenPositiveBagsHigh) {
  const std::set<int> hot{2, 5, 8, 11, 14, 17};
  MilDataset ds = MakeCorpus(30, hot, 7);
  // Label half the hot bags and several cold ones.
  for (int b : {2, 5, 8}) (void)ds.SetLabel(b, BagLabel::kRelevant);
  for (int b : {0, 1, 3, 4}) (void)ds.SetLabel(b, BagLabel::kIrrelevant);
  MiSvmEngine engine(&ds, MiSvmOptions{});
  ASSERT_TRUE(engine.Learn().ok());
  const auto ids = RankingIds(engine.Rank());
  const double acc = AccuracyAtN(ids, Truth(30, hot), 6);
  EXPECT_EQ(acc, 1.0) << "all six hot bags should fill the top-6";
  EXPECT_GE(engine.last_outer_iterations(), 1);
}

TEST(MiSvmTest, WitnessSelectionConverges) {
  const std::set<int> hot{1, 3, 5, 7};
  MilDataset ds = MakeCorpus(16, hot, 13);
  for (int b : hot) (void)ds.SetLabel(b, BagLabel::kRelevant);
  for (int b : {0, 2, 4, 6}) (void)ds.SetLabel(b, BagLabel::kIrrelevant);
  MiSvmOptions options;
  options.max_outer_iterations = 10;
  MiSvmEngine engine(&ds, options);
  ASSERT_TRUE(engine.Learn().ok());
  EXPECT_LT(engine.last_outer_iterations(), 10)
      << "witness selection should stabilize before the iteration cap";
}

TEST(DiverseDensityTest, RequiresRelevantBag) {
  MilDataset ds = MakeCorpus(8, {1}, 17);
  DiverseDensityEngine engine(&ds, DiverseDensityOptions{});
  EXPECT_TRUE(engine.Learn().IsFailedPrecondition());
}

TEST(DiverseDensityTest, RetrainWaitsForARelevantBag) {
  const std::set<int> hot{1, 4, 7};
  MilDataset ds = MakeCorpus(12, hot, 31);
  Result<std::unique_ptr<RetrievalEngine>> engine =
      MakeRetrievalEngine("dd", &ds, EngineConfig{});
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  EXPECT_EQ((*engine)->name(), "dd");
  EXPECT_TRUE((*engine)->Retrain().ok());
  EXPECT_FALSE((*engine)->trained());
  ASSERT_TRUE((*engine)->SetLabels({{0, BagLabel::kIrrelevant}}).ok());
  EXPECT_TRUE((*engine)->Retrain().ok());
  EXPECT_FALSE((*engine)->trained()) << "negatives alone define no concept";

  ASSERT_TRUE((*engine)->SetLabels({{1, BagLabel::kRelevant}}).ok());
  EXPECT_TRUE((*engine)->Retrain().ok());
  EXPECT_TRUE((*engine)->trained());
}

TEST(DiverseDensityTest, ConceptLandsNearPlantedSignature) {
  const std::set<int> hot{0, 1, 2, 3, 4, 5};
  MilDataset ds = MakeCorpus(20, hot, 19);
  for (int b : {0, 1, 2, 3}) (void)ds.SetLabel(b, BagLabel::kRelevant);
  for (int b : {6, 7, 8, 9}) (void)ds.SetLabel(b, BagLabel::kIrrelevant);
  DiverseDensityEngine engine(&ds, DiverseDensityOptions{});
  ASSERT_TRUE(engine.Learn().ok());
  ASSERT_TRUE(engine.trained());
  const Vec& t = engine.concept_point();
  ASSERT_EQ(t.size(), 9u);
  EXPECT_NEAR(t[3], 0.8, 0.15);
  EXPECT_NEAR(t[4], 0.7, 0.15);
  EXPECT_NEAR(t[5], 0.6, 0.15);
}

TEST(DiverseDensityTest, EmAndPlainDdBothRankHotBagsHigh) {
  const std::set<int> hot{2, 6, 10, 14};
  MilDataset ds = MakeCorpus(20, hot, 23);
  for (int b : {2, 6}) (void)ds.SetLabel(b, BagLabel::kRelevant);
  for (int b : {0, 1}) (void)ds.SetLabel(b, BagLabel::kIrrelevant);
  for (bool use_em : {true, false}) {
    DiverseDensityOptions options;
    options.use_em = use_em;
    DiverseDensityEngine engine(&ds, options);
    ASSERT_TRUE(engine.Learn().ok());
    const auto ids = RankingIds(engine.Rank());
    EXPECT_GE(AccuracyAtN(ids, Truth(20, hot), 4), 0.75)
        << (use_em ? "EM-DD" : "DD");
  }
}

TEST(DiverseDensityTest, NegativesSharpenTheOptimum) {
  // With negatives that sit near the positives' noise floor, log DD of the
  // learned concept must be higher than that of a zero vector.
  const std::set<int> hot{0, 1, 2};
  MilDataset ds = MakeCorpus(12, hot, 29);
  for (int b : hot) (void)ds.SetLabel(b, BagLabel::kRelevant);
  for (int b : {5, 6, 7, 8}) (void)ds.SetLabel(b, BagLabel::kIrrelevant);
  DiverseDensityEngine engine(&ds, DiverseDensityOptions{});
  ASSERT_TRUE(engine.Learn().ok());
  EXPECT_GT(engine.best_log_dd(), -50.0);
  // The concept is far from the origin (the noise floor).
  EXPECT_GT(Norm(engine.concept_point()), 0.5);
}

}  // namespace
}  // namespace mivid
