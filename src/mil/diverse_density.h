// Diverse Density (Maron & Lozano-Perez, NIPS 1998) and EM-DD (Zhang &
// Goldman, NIPS 2002) — the classic MIL formulations the paper surveys in
// Sec. 2.1, implemented as additional baseline rankers.
//
// Diverse Density seeks the concept point t maximizing
//   DD(t) = prod_{pos bags} (1 - prod_i (1 - P(t|x_i)))
//           * prod_{neg bags} prod_i (1 - P(t|x_i))
// with the Gaussian instance likelihood P(t|x) = exp(-|x - t|^2 / s^2).
// Optimized by gradient ascent from multiple starts (the instances of
// positive bags), as in the original two-step scheme. EM-DD replaces the
// noisy-or over positive bags with the single best ("responsible")
// instance per bag, alternating selection (E) and optimization (M).
// Served as registry engine "dd".

#ifndef MIVID_MIL_DIVERSE_DENSITY_H_
#define MIVID_MIL_DIVERSE_DENSITY_H_

#include <optional>

#include "common/status.h"
#include "mil/dataset.h"
#include "retrieval/engine.h"
#include "retrieval/heuristic.h"

namespace mivid {

/// Optimizer configuration.
struct DiverseDensityOptions {
  double scale = 0.35;          ///< Gaussian width s over normalized dims
  double learning_rate = 0.05;  ///< gradient ascent step
  int max_gradient_steps = 200;
  int max_em_iterations = 12;   ///< EM-DD outer loop
  size_t max_starts = 24;       ///< gradient restarts (positive instances)
  bool use_em = true;           ///< EM-DD (paper: more robust) vs plain DD
};

/// Diverse-Density MIL ranker over a labeled MilDataset (registry key
/// "dd").
class DiverseDensityEngine : public RetrievalEngine {
 public:
  /// `dataset` must outlive the engine.
  DiverseDensityEngine(MilDataset* dataset, DiverseDensityOptions options);

  std::string_view name() const override { return "dd"; }

  /// Finds the maximum-DD concept from the current labels. Needs >= 1
  /// relevant bag (negatives are optional but sharpen the optimum).
  Status Learn();

  /// Cold-start-aware Learn(): a no-op until a relevant label exists.
  Status Retrain() override;

  bool trained() const override { return concept_.has_value(); }

  /// Ranks bags by the best instance likelihood under the concept.
  std::vector<ScoredBag> Rank() const override;

  /// The learned concept point (valid when trained()).
  const Vec& concept_point() const { return *concept_; }
  double best_log_dd() const { return best_log_dd_; }

 private:
  double LogDd(const Vec& t,
               const std::vector<const MilBag*>& positive,
               const std::vector<const MilBag*>& negative) const;

  DiverseDensityOptions options_;
  std::optional<Vec> concept_;
  double best_log_dd_ = -1e300;
};

}  // namespace mivid

#endif  // MIVID_MIL_DIVERSE_DENSITY_H_
