#include "retrieval/engine_registry.h"

#include "common/string_util.h"

namespace mivid {

const std::vector<EngineRegistryEntry>& EngineRegistry() {
  static const std::vector<EngineRegistryEntry> kRegistry = {
      {"milrf", "MIL one-class SVM relevance feedback (proposed method)",
       [](MilDataset* dataset, const EngineConfig& config)
           -> std::unique_ptr<RetrievalEngine> {
         return std::make_unique<MilRfEngine>(dataset, config.mil);
       }},
      {"weighted", "weighted relevance feedback (inverse-stddev weights)",
       [](MilDataset* dataset, const EngineConfig& config)
           -> std::unique_ptr<RetrievalEngine> {
         return std::make_unique<WeightedRfEngine>(dataset, config.weighted);
       }},
      {"rocchio", "Rocchio query-point movement",
       [](MilDataset* dataset, const EngineConfig& config)
           -> std::unique_ptr<RetrievalEngine> {
         return std::make_unique<RocchioEngine>(dataset, config.rocchio);
       }},
      {"misvm", "MI-SVM witness-selection binary SVM",
       [](MilDataset* dataset, const EngineConfig& config)
           -> std::unique_ptr<RetrievalEngine> {
         return std::make_unique<MiSvmEngine>(dataset, config.misvm);
       }},
      {"cknn", "citation-kNN over Hausdorff bag distances",
       [](MilDataset* dataset, const EngineConfig& config)
           -> std::unique_ptr<RetrievalEngine> {
         return std::make_unique<CitationKnnEngine>(dataset, config.cknn);
       }},
      {"dd", "EM-DD diverse density concept point",
       [](MilDataset* dataset, const EngineConfig& config)
           -> std::unique_ptr<RetrievalEngine> {
         return std::make_unique<DiverseDensityEngine>(dataset, config.dd);
       }},
  };
  return kRegistry;
}

bool EngineRegistered(std::string_view name) {
  for (const auto& entry : EngineRegistry()) {
    if (name == entry.name) return true;
  }
  return false;
}

std::vector<std::string> RegisteredEngineNames() {
  std::vector<std::string> names;
  names.reserve(EngineRegistry().size());
  for (const auto& entry : EngineRegistry()) names.emplace_back(entry.name);
  return names;
}

Result<std::unique_ptr<RetrievalEngine>> MakeRetrievalEngine(
    std::string_view name, MilDataset* dataset, const EngineConfig& config) {
  for (const auto& entry : EngineRegistry()) {
    if (name == entry.name) return entry.make(dataset, config);
  }
  return Status::InvalidArgument(
      StrFormat("unknown retrieval engine '%.*s' (registered: %s)",
                static_cast<int>(name.size()), name.data(),
                Join(RegisteredEngineNames(), ", ").c_str()));
}

}  // namespace mivid
