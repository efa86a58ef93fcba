// String-keyed factory for RetrievalEngine implementations.
//
// Every learner the repo implements is constructible by name, so the
// serving layer, the CLI (--engine) and the experiment harness select a
// method per session/run without compile-time coupling to the concrete
// classes:
//   "milrf"    MIL one-class SVM (the paper's proposed method)
//   "weighted" weighted relevance feedback (Sec. 6.2 baseline)
//   "rocchio"  Rocchio query-point movement
//   "misvm"    MI-SVM (Andrews et al.)
//   "cknn"     citation-kNN (Wang & Zucker)
//   "dd"       EM-DD diverse density (Zhang & Goldman)

#ifndef MIVID_RETRIEVAL_ENGINE_REGISTRY_H_
#define MIVID_RETRIEVAL_ENGINE_REGISTRY_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "baseline/rocchio.h"
#include "baseline/weighted_rf.h"
#include "common/status.h"
#include "mil/citation_knn.h"
#include "mil/diverse_density.h"
#include "mil/mi_svm.h"
#include "retrieval/engine.h"
#include "retrieval/mil_rf_engine.h"

namespace mivid {

/// Per-engine configuration bundle. Each engine consumes only its own
/// member; the corpus feature dimension lives inside the option structs
/// that need one (mil.base_dim, weighted.base_dim).
struct EngineConfig {
  MilRfOptions mil;
  WeightedRfOptions weighted;
  RocchioOptions rocchio;
  MiSvmOptions misvm;
  CitationKnnOptions cknn;
  DiverseDensityOptions dd;
};

/// One registry row.
struct EngineRegistryEntry {
  const char* name;         ///< registry key
  const char* description;  ///< one-line help text
  std::unique_ptr<RetrievalEngine> (*make)(MilDataset* dataset,
                                           const EngineConfig& config);
};

/// The full registry, in canonical order (proposed method first).
const std::vector<EngineRegistryEntry>& EngineRegistry();

/// True when `name` is a registered engine key.
bool EngineRegistered(std::string_view name);

/// Registered keys in registry order.
std::vector<std::string> RegisteredEngineNames();

/// Builds the engine registered under `name` over `dataset` (which must
/// outlive the engine). InvalidArgument on an unknown name.
Result<std::unique_ptr<RetrievalEngine>> MakeRetrievalEngine(
    std::string_view name, MilDataset* dataset, const EngineConfig& config);

}  // namespace mivid

#endif  // MIVID_RETRIEVAL_ENGINE_REGISTRY_H_
