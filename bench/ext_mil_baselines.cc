// Extension bench (beyond the paper's evaluation): compares the paper's
// One-class-SVM MIL engine against the MIL literature it surveys in
// Sec. 2.1 — MI-SVM (Andrews et al. [16]) and EM-DD (Zhang & Goldman [7])
// — plus the weighted-RF baseline, all under the same relevance-feedback
// protocol on both clips. Every learner is built by its registry key.

#include <cstdio>

#include "common/ascii_plot.h"
#include "common/string_util.h"
#include "eval/experiment.h"
#include "eval/metrics.h"
#include "retrieval/engine_registry.h"

using namespace mivid;

namespace {

/// Display label per registry key, in table order.
struct Method {
  const char* key;
  const char* label;
};
constexpr Method kMethods[] = {
    {"milrf", "OneClassSVM (paper)"}, {"misvm", "MI-SVM"},
    {"dd", "EM-DD"},                  {"cknn", "Citation-kNN"},
    {"weighted", "Weighted_RF"},      {"rocchio", "Rocchio"},
};

/// Accuracy per round: rank (the initial-query heuristic until the engine
/// has trained), label the top n from the oracle, retrain.
std::vector<double> RunProtocol(const ClipAnalysis& analysis,
                                RetrievalEngine* engine,
                                const EventModel& heuristic, int rounds,
                                size_t top_n) {
  const size_t dim = analysis.scaler.dimension();
  std::vector<double> curve;
  for (int round = 0; round <= rounds; ++round) {
    const auto ids =
        RankingIds(engine->trained()
                       ? engine->Rank()
                       : HeuristicRanking(engine->dataset(), heuristic, dim));
    curve.push_back(AccuracyAtN(ids, analysis.truth, top_n));
    if (round == rounds) break;
    std::vector<std::pair<int, BagLabel>> labels;
    for (size_t i = 0; i < ids.size() && i < top_n; ++i) {
      auto it = analysis.truth.find(ids[i]);
      labels.emplace_back(ids[i], it == analysis.truth.end()
                                      ? BagLabel::kIrrelevant
                                      : it->second);
    }
    (void)engine->SetLabels(labels);
    (void)engine->Retrain();
  }
  return curve;
}

void RunClip(const char* label, const ScenarioSpec& scenario, int stride) {
  ExperimentOptions options;
  options.pipeline = PipelineMode::kVisionTracks;
  options.windows.stride = stride;
  Result<ClipAnalysis> analysis_or = AnalyzeScenario(scenario, options);
  if (!analysis_or.ok()) {
    std::fprintf(stderr, "%s\n", analysis_or.status().ToString().c_str());
    return;
  }
  const ClipAnalysis& analysis = analysis_or.value();
  const size_t dim = analysis.scaler.dimension();
  const EventModel heuristic = EventModel::Accident(dim);
  EngineConfig config;
  config.mil.base_dim = dim;
  config.weighted.base_dim = dim;

  std::vector<std::pair<std::string, std::vector<double>>> curves;
  for (const Method& method : kMethods) {
    MilDataset ds = analysis.dataset;
    Result<std::unique_ptr<RetrievalEngine>> engine =
        MakeRetrievalEngine(method.key, &ds, config);
    if (!engine.ok()) {
      std::fprintf(stderr, "%s\n", engine.status().ToString().c_str());
      return;
    }
    curves.emplace_back(method.label,
                        RunProtocol(analysis, engine->get(), heuristic,
                                    /*rounds=*/4, options.top_n));
  }

  std::printf("\n%s (windows=%zu, relevant=%zu)\n", label,
              analysis.windows.size(), analysis.num_relevant);
  std::vector<std::string> header{"method", "Initial", "First", "Second",
                                  "Third", "Fourth"};
  std::vector<std::vector<std::string>> rows;
  for (const auto& [name, curve] : curves) {
    std::vector<std::string> row{name};
    for (double a : curve) row.push_back(StrFormat("%.1f%%", 100 * a));
    rows.push_back(std::move(row));
  }
  std::printf("%s", AsciiTable(header, rows).c_str());
}

}  // namespace

int main() {
  std::printf("MIL method comparison under the paper's RF protocol\n");
  RunClip("clip 1 (tunnel)", MakeTunnelScenario(), /*stride=*/3);
  RunClip("clip 2 (intersection)", MakeIntersectionScenario(), /*stride=*/1);
  return 0;
}
