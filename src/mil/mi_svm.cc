#include "mil/mi_svm.h"

#include <algorithm>
#include <cmath>

#include "linalg/packed_matrix.h"
#include "linalg/simd.h"

namespace mivid {

MiSvmEngine::MiSvmEngine(MilDataset* dataset, MiSvmOptions options)
    : RetrievalEngine(dataset), options_(options) {}

Status MiSvmEngine::Retrain() {
  if (dataset_->CountLabel(BagLabel::kRelevant) == 0 ||
      dataset_->CountLabel(BagLabel::kIrrelevant) == 0) {
    return Status::OK();
  }
  return Learn();
}

Status MiSvmEngine::Learn() {
  const auto positive = dataset_->BagsWithLabel(BagLabel::kRelevant);
  const auto negative = dataset_->BagsWithLabel(BagLabel::kIrrelevant);
  if (positive.empty() || negative.empty()) {
    return Status::FailedPrecondition(
        "MI-SVM needs at least one relevant and one irrelevant bag");
  }

  // Negative side: every instance of every irrelevant bag (Eq. 4: all are
  // irrelevant). Fixed across outer iterations.
  std::vector<const MilInstance*> negatives;
  for (const MilBag* bag : negative) {
    for (const auto& inst : bag->instances) negatives.push_back(&inst);
  }
  if (negatives.empty()) {
    return Status::FailedPrecondition("irrelevant bags contain no instances");
  }

  // The negative side is fixed across outer iterations, so its SoA packing
  // is built once and reused by every round's bandwidth median below.
  std::vector<const Vec*> neg_points;
  neg_points.reserve(negatives.size());
  for (const MilInstance* inst : negatives) {
    neg_points.push_back(&inst->features);
  }
  const PackedFeatureMatrix neg_packed =
      PackedFeatureMatrix::FromPoints(neg_points, dataset_->dim());

  // Witness per positive bag; -1 in the first round means "use the bag
  // mean as a synthetic positive exemplar" (the original MI-SVM
  // initialization), after which real instances take over.
  std::vector<int> witness(positive.size(), -1);
  std::vector<Vec> bag_means(positive.size());
  for (size_t b = 0; b < positive.size(); ++b) {
    const auto& instances = positive[b]->instances;
    if (instances.empty()) continue;
    Vec mean(instances[0].features.size(), 0.0);
    for (const auto& inst : instances) {
      for (size_t d = 0; d < mean.size(); ++d) mean[d] += inst.features[d];
    }
    for (double& v : mean) v /= static_cast<double>(instances.size());
    bag_means[b] = std::move(mean);
  }

  std::optional<BinarySvmModel> model;
  int outer = 0;
  for (; outer < options_.max_outer_iterations; ++outer) {
    // Assemble the training set for this round.
    std::vector<Vec> points;
    std::vector<int> labels;
    for (size_t b = 0; b < positive.size(); ++b) {
      if (positive[b]->instances.empty()) continue;
      points.push_back(witness[b] < 0
                           ? bag_means[b]
                           : positive[b]
                                 ->instances[static_cast<size_t>(witness[b])]
                                 .features);
      labels.push_back(1);
    }
    for (const MilInstance* inst : negatives) {
      points.push_back(inst->features);
      labels.push_back(-1);
    }
    if (points.empty() || labels.front() != 1) {
      return Status::FailedPrecondition("relevant bags contain no instances");
    }

    BinarySvmOptions svm_options = options_.svm;
    if (options_.auto_sigma &&
        svm_options.kernel.type == KernelType::kRbf && points.size() >= 2) {
      // Bandwidth from the between-class distance scale: the kernel must
      // resolve the positive-negative margin, not the within-class spread.
      std::vector<double> dists;
      std::vector<double> d2(negatives.size());
      const SimdOpsTable& ops = SimdOps();
      for (size_t i = 0; i < points.size(); ++i) {
        if (labels[i] != 1) continue;
        // One SIMD row of positive-to-negative distances.
        ops.direct_d2_row(points[i].data(), neg_packed.dim(),
                          neg_packed.data(), neg_packed.stride(),
                          negatives.size(), d2.data());
        for (size_t j = 0; j < negatives.size(); ++j) {
          dists.push_back(std::sqrt(d2[j]));
        }
      }
      if (!dists.empty()) {
        std::nth_element(dists.begin(), dists.begin() + dists.size() / 2,
                         dists.end());
        const double median = dists[dists.size() / 2];
        if (median > 1e-9) {
          svm_options.kernel.sigma = options_.sigma_scale * median;
        }
      }
    }

    Result<BinarySvmModel> trained =
        BinarySvmTrainer(svm_options).Train(points, labels);
    if (!trained.ok()) return trained.status();
    model = std::move(trained).value();

    // Re-select witnesses; stop when stable.
    bool changed = false;
    for (size_t b = 0; b < positive.size(); ++b) {
      const auto& instances = positive[b]->instances;
      if (instances.empty()) continue;
      int best = witness[b];
      double best_value = -1e300;
      for (size_t i = 0; i < instances.size(); ++i) {
        const double v = model->DecisionValue(instances[i].features);
        if (v > best_value) {
          best_value = v;
          best = static_cast<int>(i);
        }
      }
      if (best != witness[b]) {
        witness[b] = best;
        changed = true;
      }
    }
    if (!changed) {
      ++outer;
      break;
    }
  }

  model_ = std::move(model);
  last_outer_iterations_ = outer;
  return Status::OK();
}

std::vector<ScoredBag> MiSvmEngine::Rank() const {
  std::vector<ScoredBag> ranking;
  if (!model_) return ranking;
  ranking.reserve(dataset_->size());
  for (const auto& bag : dataset_->bags()) {
    double best = -1e300;
    for (const auto& inst : bag.instances) {
      best = std::max(best, model_->DecisionValue(inst.features));
    }
    ranking.push_back({bag.id, bag.empty() ? -1e300 : best});
  }
  std::stable_sort(ranking.begin(), ranking.end(),
                   [](const ScoredBag& a, const ScoredBag& b) {
                     if (a.score != b.score) return a.score > b.score;
                     return a.bag_id < b.bag_id;
                   });
  return ranking;
}

}  // namespace mivid
