#include "retrieval/mil_rf_engine.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>

#include "common/thread_pool.h"
#include "linalg/simd.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace mivid {

namespace {

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

MilRfEngine::MilRfEngine(MilDataset* dataset, MilRfOptions options)
    : RetrievalEngine(dataset), options_(options) {
  if (options_.tie_break_model.weights.empty()) {
    options_.tie_break_model = EventModel::Accident(options_.base_dim);
  }
}

Status MilRfEngine::Retrain() {
  if (dataset_->CountLabel(BagLabel::kRelevant) == 0) return Status::OK();
  return Learn();
}

Status MilRfEngine::Learn() {
  MIVID_TRACE_SPAN("mil/learn");
  MIVID_SCOPED_TIMER("mil/learn_seconds");
  const auto learn_start = std::chrono::steady_clock::now();
  const std::vector<const MilBag*> relevant =
      dataset_->BagsWithLabel(BagLabel::kRelevant);
  if (relevant.empty()) {
    return Status::FailedPrecondition(
        "no relevant feedback yet; use the initial heuristic ranking");
  }

  // Assemble the training set per the policy over heuristic scores.
  std::vector<Vec> training;
  for (const MilBag* bag : relevant) {
    if (bag->empty()) continue;
    std::vector<double> scores;
    scores.reserve(bag->instances.size());
    double best_score = -1.0;
    for (const auto& inst : bag->instances) {
      scores.push_back(HeuristicInstanceScore(
          inst.raw_features, options_.tie_break_model, options_.base_dim));
      best_score = std::max(best_score, scores.back());
    }
    auto add = [&](size_t i) {
      training.push_back(bag->instances[i].features);
    };
    if (options_.policy == TrainingSetPolicy::kAllInstances) {
      for (size_t i = 0; i < scores.size(); ++i) add(i);
    } else if (options_.policy == TrainingSetPolicy::kTopInstancePerBag) {
      for (size_t i = 0; i < scores.size(); ++i) {
        if (scores[i] == best_score) {
          add(i);
          break;
        }
      }
    } else {  // kTopScoredInstances
      const double cutoff = best_score * options_.top_score_fraction;
      for (size_t i = 0; i < scores.size(); ++i) {
        if (scores[i] >= cutoff) add(i);
      }
    }
  }
  if (training.empty()) {
    return Status::FailedPrecondition("relevant bags contain no instances");
  }

  // Eq. 9: delta = 1 - (h/H + z).
  const double h = static_cast<double>(relevant.size());
  const double big_h = static_cast<double>(training.size());
  const double nu =
      std::clamp(1.0 - (h / big_h + options_.z), options_.min_nu,
                 options_.max_nu);

  OneClassSvmOptions svm_options;
  svm_options.kernel = options_.kernel;
  const bool rbf = svm_options.kernel.type == KernelType::kRbf;

  // RBF: one pass of pairwise squared distances feeds both the bandwidth
  // heuristic and the Gram.
  std::optional<Matrix> d2;
  if (rbf) d2 = PairwiseSquaredDistances(training);
  if (options_.auto_sigma && rbf && training.size() >= 2) {
    // Median-distance bandwidth heuristic: wide enough to generalize
    // across the relevant cluster, narrow enough to exclude the rest.
    std::vector<double> dists;
    dists.reserve(training.size() * (training.size() - 1) / 2);
    for (size_t i = 0; i < training.size(); ++i) {
      for (size_t j = i + 1; j < training.size(); ++j) {
        dists.push_back(std::sqrt(d2->At(i, j)));
      }
    }
    std::nth_element(dists.begin(), dists.begin() + dists.size() / 2,
                     dists.end());
    const double median = dists[dists.size() / 2];
    if (median > 1e-9) {
      svm_options.kernel.sigma = options_.sigma_scale * median;
    }
  }
  svm_options.nu = nu;
  OneClassSvmTrainer trainer(svm_options);
  OneClassSvmModel model;
  if (rbf) {
    const GramMatrix gram(svm_options.kernel, *d2);
    MIVID_ASSIGN_OR_RETURN(model, trainer.Train(training, gram));
  } else {
    MIVID_ASSIGN_OR_RETURN(model, trainer.Train(training));
  }

  model_ = std::move(model);
  last_nu_ = nu;
  last_training_size_ = training.size();

  MilRoundStats stats;
  stats.round = static_cast<int>(summary_.rounds.size()) + 1;
  stats.nu = nu;
  stats.sigma = svm_options.kernel.sigma;
  stats.relevant_bags = relevant.size();
  stats.training_size = training.size();
  stats.support_vectors = model_->num_support_vectors();
  stats.smo_iterations = model_->iterations_used();
  stats.achieved_outlier_fraction = model_->training_outlier_fraction();
  stats.learn_seconds = SecondsSince(learn_start);
  summary_.rounds.push_back(stats);

  MIVID_METRIC_GAUGE_SET("mil/last_nu", nu);
  MIVID_METRIC_GAUGE_SET("mil/last_sigma", stats.sigma);
  MIVID_METRIC_GAUGE_SET("mil/last_training_size",
                         static_cast<double>(training.size()));
  MIVID_METRIC_COUNT("mil/learn_calls", 1);
  return Status::OK();
}

std::vector<ScoredBag> MilRfEngine::Rank() const {
  MIVID_TRACE_SPAN("mil/rank");
  MIVID_SCOPED_TIMER("rank/seconds");
  const auto rank_start = std::chrono::steady_clock::now();
  std::vector<ScoredBag> ranking;
  if (!model_) return ranking;

  // Score every instance of every bag in one parallel SIMD batch over the
  // corpus's cached SoA lowering, then take per-bag maxima (order-
  // independent, so the ranking is identical at any thread count).
  const std::vector<MilBag>& bags = dataset_->bags();
  const std::shared_ptr<const PackedCorpus> packed = dataset_->EnsurePacked();
  const std::vector<double> values = model_->DecisionValues(packed->features);
  const std::vector<size_t>& bag_begin = packed->bag_begin;

  ranking.reserve(bags.size());
  for (size_t b = 0; b < bags.size(); ++b) {
    double best = -1e18;
    for (size_t q = bag_begin[b]; q < bag_begin[b + 1]; ++q) {
      best = std::max(best, values[q]);
    }
    ranking.push_back({bags[b].id, best});
  }
  std::stable_sort(ranking.begin(), ranking.end(),
                   [](const ScoredBag& a, const ScoredBag& b) {
                     if (a.score != b.score) return a.score > b.score;
                     return a.bag_id < b.bag_id;
                   });
  ++summary_.rank_calls;
  summary_.total_rank_seconds += SecondsSince(rank_start);
  MIVID_METRIC_COUNT("rank/bags", ranking.size());
  MIVID_METRIC_COUNT("rank/calls", 1);
  return ranking;
}

std::vector<ScoredBag> MilRfEngine::RankTopK(size_t k) const {
  if (!model_) return {};
  if (k == 0) return {};
  const std::vector<MilBag>& bags = dataset_->bags();
  const std::shared_ptr<const PackedCorpus> packed = dataset_->EnsurePacked();
  const bool rbf = model_->kernel().type == KernelType::kRbf;
  if (!rbf || k >= bags.size()) {
    return RetrievalEngine::RankTopK(k);
  }
  MIVID_TRACE_SPAN("mil/rank_topk");
  MIVID_SCOPED_TIMER("rank/seconds");
  const auto rank_start = std::chrono::steady_clock::now();

  const PreparedKernel kernel(model_->kernel());
  const double gamma = kernel.gamma();
  const double rho = model_->rho();
  const std::vector<Vec>& svs = model_->support_vectors();
  const Vec& coef = model_->coefficients();
  const size_t num_sv = svs.size();
  const PackedFeatureMatrix& feat = packed->features;
  const SimdOpsTable& ops = SimdOps();

  // suffix[s] = sum of coefficients s..end. An RBF kernel value lies in
  // (0, 1], so after accumulating the first s support vectors a bag's
  // decision value can exceed its current partial maximum by at most
  // suffix[s]. The sums carry ~1e-13 of rounding at most; the pruning
  // slack below dominates that comfortably.
  std::vector<double> suffix(num_sv + 1, 0.0);
  for (size_t s = num_sv; s > 0; --s) suffix[s - 1] = suffix[s] + coef[s - 1];
  constexpr size_t kSvBlock = 32;
  // Prune only when the bound is below the k-th score by more than the
  // slack: the bound's floating-point error is orders of magnitude
  // smaller, so a pruned bag provably ranks below every kept one — and
  // can't even tie, which keeps tie-breaking identical to Rank().
  constexpr double kSlack = 1e-9;

  // Min-heap on (score desc, bag_id asc): top() is the weakest of the
  // current k best, i.e. the pruning threshold.
  struct Entry {
    double score;
    int bag_id;
  };
  // comp(a, b) == "a ranks before b"; the heap's top is then the entry
  // ranking last among the kept k.
  const auto better = [](const Entry& a, const Entry& b) {
    if (a.score != b.score) return a.score > b.score;
    return a.bag_id < b.bag_id;
  };
  std::vector<Entry> heap;
  heap.reserve(k);
  size_t pruned = 0;

  // Serial bag loop in dataset order — same accumulation schedule at any
  // MIVID_THREADS, and the threshold tightens as strong bags are seen.
  std::vector<double> d2;
  std::vector<double> krow;
  std::vector<double> acc;
  for (size_t b = 0; b < bags.size(); ++b) {
    const size_t begin = packed->bag_begin[b];
    const size_t count = packed->bag_begin[b + 1] - begin;
    double score;
    if (count == 0) {
      score = -1e18;  // Rank() scores empty bags at the floor
    } else {
      const bool full = heap.size() < k;
      const double tau = full ? -std::numeric_limits<double>::infinity()
                              : heap.front().score;
      d2.resize(count);
      krow.resize(count);
      acc.assign(count, 0.0);
      const double* x = feat.data() + begin;
      size_t s = 0;
      bool below = false;
      while (s < num_sv) {
        const size_t s_end = std::min(num_sv, s + kSvBlock);
        for (; s < s_end; ++s) {
          ops.direct_d2_row(svs[s].data(), feat.dim(), x, feat.stride(),
                            count, d2.data());
          ops.rbf_from_d2_row(gamma, d2.data(), count, krow.data());
          ops.axpy(coef[s], krow.data(), count, acc.data());
        }
        if (s == num_sv) break;
        double best_acc = acc[0];
        for (size_t t = 1; t < count; ++t) best_acc = std::max(best_acc, acc[t]);
        if (best_acc + suffix[s] - rho < tau - kSlack) {
          below = true;
          ++pruned;
          break;
        }
      }
      if (below) continue;
      // Fully evaluated: the same SIMD rows in the same ascending-SV
      // order as DecisionValues, so the score bits match Rank() exactly.
      double best = -1e18;
      for (size_t t = 0; t < count; ++t) best = std::max(best, acc[t] - rho);
      score = best;
    }
    if (heap.size() < k) {
      heap.push_back({score, bags[b].id});
      std::push_heap(heap.begin(), heap.end(), better);
    } else if (better({score, bags[b].id}, heap.front())) {
      std::pop_heap(heap.begin(), heap.end(), better);
      heap.back() = {score, bags[b].id};
      std::push_heap(heap.begin(), heap.end(), better);
    }
  }

  std::vector<ScoredBag> ranking;
  ranking.reserve(heap.size());
  for (const Entry& e : heap) ranking.push_back({e.bag_id, e.score});
  std::stable_sort(ranking.begin(), ranking.end(),
                   [](const ScoredBag& a, const ScoredBag& b) {
                     if (a.score != b.score) return a.score > b.score;
                     return a.bag_id < b.bag_id;
                   });
  ++summary_.rank_calls;
  summary_.total_rank_seconds += SecondsSince(rank_start);
  MIVID_METRIC_COUNT("rank/topk_calls", 1);
  MIVID_METRIC_COUNT("rank/topk_pruned_bags", pruned);
  MIVID_METRIC_COUNT("rank/bags", ranking.size());
  MIVID_METRIC_COUNT("rank/calls", 1);
  return ranking;
}

}  // namespace mivid
