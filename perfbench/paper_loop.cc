// paper_loop: the paper's experiment as a batch job. The untraced run
// calls RunRfExperiment on the Fig. 8 tunnel clip and then the Fig. 9
// intersection clip until the window is spent. The traced run mirrors
// AnalyzeScenario / RunRfExperimentOnAnalysis call by call with a timer
// around every layer, and must reproduce the untraced curves exactly.

#include <algorithm>
#include <map>
#include <mutex>

#include "common/string_util.h"
#include "common/thread_pool.h"
#include "eval/experiment.h"
#include "eval/metrics.h"
#include "eval/oracle.h"
#include "event/event_model.h"
#include "event/features.h"
#include "event/sliding_window.h"
#include "retrieval/heuristic.h"
#include "segment/segmenter.h"
#include "track/tracker.h"
#include "trafficsim/renderer.h"
#include "trafficsim/world.h"
#include "workloads.h"

namespace perfbench {

using mivid::Result;
using mivid::Status;
using mivid::StrFormat;

namespace {

struct Clip {
  mivid::ScenarioSpec scenario;
  mivid::ExperimentOptions options;
};

/// The Fig. 8 tunnel and Fig. 9 intersection clips with the paper's
/// scenario seeds, for every benchmark seed: mil_acc20_final must repeat
/// exactly across runs, and other scenario seeds give other accuracies
/// (on some, e.g. 1, 2, 6 and 9, the intersection clip's MIL curve dips).
std::vector<Clip> PaperClips() {
  mivid::TunnelScenarioOptions tunnel;
  tunnel.seed = 2015;
  mivid::IntersectionScenarioOptions intersection;
  intersection.seed = 2008;
  Clip fig8;
  fig8.scenario = mivid::MakeTunnelScenario(tunnel);
  fig8.options.pipeline = mivid::PipelineMode::kVisionTracks;
  Clip fig9;
  fig9.scenario = mivid::MakeIntersectionScenario(intersection);
  fig9.options.pipeline = mivid::PipelineMode::kVisionTracks;
  fig9.options.windows.stride = 1;  // as bench/fig9_intersection_accuracy
  return {fig8, fig9};
}

const mivid::MethodCurve* Curve(const mivid::ExperimentResult& r,
                                const std::string& method) {
  for (const mivid::MethodCurve& c : r.curves) {
    if (c.method == method) return &c;
  }
  return nullptr;
}

/// The paper's result shape: MIL never loses accuracy to feedback and
/// ends at least as high as Weighted_RF.
void CheckShape(const mivid::ExperimentResult& r, Report* report) {
  const mivid::MethodCurve* mil = Curve(r, "MIL_OneClassSVM");
  const mivid::MethodCurve* weighted = Curve(r, "Weighted_RF");
  if (mil == nullptr || weighted == nullptr || mil->accuracy.size() != 5) {
    report->CheckFailed(r.scenario + ": missing accuracy curves");
    return;
  }
  for (size_t i = 1; i < mil->accuracy.size(); ++i) {
    report->Check(mil->accuracy[i] >= mil->accuracy[i - 1],
                  StrFormat("%s: MIL accuracy fell in round %zu",
                            r.scenario.c_str(), i));
  }
  report->Check(mil->accuracy.back() >= weighted->accuracy.back(),
                r.scenario + ": MIL final accuracy below Weighted_RF");
}

std::string CurveKey(const mivid::ExperimentResult& r) {
  std::string key = StrFormat("%s windows=%zu ts=%zu", r.scenario.c_str(),
                              r.num_windows, r.num_ts);
  for (const mivid::MethodCurve& c : r.curves) {
    key += " " + c.method + ":";
    for (double a : c.accuracy) key += StrFormat("%.17g,", a);
  }
  return key;
}

double MilFinal(const mivid::ExperimentResult& r) {
  const mivid::MethodCurve* mil = Curve(r, "MIL_OneClassSVM");
  return mil != nullptr && !mil->accuracy.empty() ? mil->accuracy.back()
                                                  : 0.0;
}

/// Per-layer seconds of the traced mirror.
struct Layers {
  double step = 0, render = 0, seg_ingest = 0, refine_busy = 0,
         refine_wall = 0, track = 0, extract = 0, dataset = 0, oracle = 0,
         learn = 0, rank = 0;
  int64_t windows = 0, ts = 0, smo_iterations = 0, support_vectors = 0;
  double Covered() const {
    return step + render + seg_ingest + refine_wall + track + extract +
           dataset + oracle + learn + rank;
  }
};

/// Timer accumulating into one layer.
class Span {
 public:
  explicit Span(double* into) : into_(into), t0_(Clock::now()) {}
  ~Span() { *into_ += SecondsSince(t0_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  double* into_;
  Clock::time_point t0_;
};

/// Frames per parallel refine batch; must equal kSegmentBatchFrames in
/// eval/experiment.cc for the mirror to reproduce its tracks.
constexpr size_t kBatchFrames = 64;

/// Mirror of VisionTracks (eval/experiment.cc).
std::vector<mivid::Track> MirrorVisionTracks(const mivid::ScenarioSpec& spec,
                                             Layers* t) {
  mivid::TrafficWorld world(spec);
  mivid::Renderer renderer(world.spec().layout);
  mivid::VehicleSegmenter segmenter;
  mivid::Tracker tracker;
  std::vector<mivid::PendingSegmentation> pending;
  std::vector<int> frame_ids;
  std::mutex busy_mu;
  auto flush = [&]() {
    std::vector<std::vector<mivid::Blob>> blobs(pending.size());
    {
      Span wall(&t->refine_wall);
      mivid::ParallelFor(pending.size(), 1, [&](size_t begin, size_t end) {
        const Clock::time_point t0 = Clock::now();
        for (size_t i = begin; i < end; ++i) {
          blobs[i] = mivid::VehicleSegmenter::Refine(pending[i],
                                                     segmenter.options());
        }
        const double busy = SecondsSince(t0);
        std::lock_guard<std::mutex> lock(busy_mu);
        t->refine_busy += busy;
      });
    }
    Span observe(&t->track);
    for (size_t i = 0; i < pending.size(); ++i) {
      tracker.Observe(frame_ids[i], blobs[i]);
    }
    pending.clear();
    frame_ids.clear();
  };
  while (!world.Done()) {
    {
      Span step(&t->step);
      world.Step();
    }
    mivid::Frame frame = [&] {
      Span render(&t->render);
      return renderer.Render(world.vehicles());
    }();
    {
      Span ingest(&t->seg_ingest);
      pending.push_back(segmenter.Ingest(std::move(frame)));
    }
    frame_ids.push_back(world.frame() - 1);
    if (pending.size() >= kBatchFrames) flush();
  }
  flush();
  Span finish(&t->track);
  return tracker.Finish();
}

/// Mirror of RunRfExperiment: AnalyzeScenario, then RunProtocol for each
/// method, with every layer call timed.
Result<mivid::ExperimentResult> MirrorExperiment(const Clip& clip,
                                                 Layers* t) {
  const mivid::ExperimentOptions& options = clip.options;
  mivid::GroundTruth ground_truth;
  {
    Span step(&t->step);
    mivid::TrafficWorld world(clip.scenario);
    ground_truth = world.Run();
  }
  const std::vector<mivid::Track> tracks =
      MirrorVisionTracks(clip.scenario, t);
  std::vector<mivid::VideoSequence> windows;
  mivid::FeatureScaler scaler;
  {
    Span extract(&t->extract);
    const std::vector<mivid::TrackFeatures> features =
        mivid::ComputeTrackFeatures(tracks, options.features);
    scaler = mivid::FeatureScaler::Fit(features,
                                       options.features.include_velocity);
    windows = mivid::ExtractWindows(features, clip.scenario.total_frames,
                                    options.features, options.windows);
  }
  mivid::MilDataset corpus;
  {
    Span dataset(&t->dataset);
    corpus = mivid::MilDataset::FromVideoSequences(
        windows, scaler, options.features.include_velocity);
  }
  std::map<int, mivid::BagLabel> truth;
  size_t relevant = 0;
  {
    Span oracle(&t->oracle);
    mivid::FeedbackOracle labeler(&ground_truth, options.relevant_types);
    truth = labeler.LabelAll(windows);
    for (const auto& [id, label] : truth) {
      relevant += label == mivid::BagLabel::kRelevant ? 1 : 0;
    }
  }
  if (windows.empty()) {
    return Status::FailedPrecondition("scenario produced no windows");
  }

  mivid::ExperimentResult result;
  result.scenario = clip.scenario.name;
  result.total_frames = clip.scenario.total_frames;
  result.num_windows = windows.size();
  result.num_ts = mivid::CountTrajectorySequences(windows);
  result.num_relevant_vs = relevant;
  t->windows += static_cast<int64_t>(result.num_windows);
  t->ts += static_cast<int64_t>(result.num_ts);

  const size_t base_dim = scaler.dimension();
  const mivid::EventModel heuristic = mivid::EventModel::Accident(base_dim);
  mivid::EngineConfig config;
  config.mil = options.mil;
  config.mil.base_dim = base_dim;
  config.weighted = options.weighted;
  config.weighted.base_dim = base_dim;
  const std::pair<const char*, const char*> methods[] = {
      {"MIL_OneClassSVM", "milrf"},
      {"Weighted_RF", "weighted"},
  };
  for (const auto& [curve_name, engine_name] : methods) {
    mivid::MilDataset dataset = corpus;
    MIVID_ASSIGN_OR_RETURN(
        std::unique_ptr<mivid::RetrievalEngine> engine,
        mivid::MakeRetrievalEngine(engine_name, &dataset, config));
    mivid::MethodCurve curve;
    curve.method = curve_name;
    std::map<int, mivid::BagLabel> given;
    for (int round = 0; round <= options.feedback_rounds; ++round) {
      std::vector<mivid::ScoredBag> ranking;
      {
        Span rank(&t->rank);
        ranking = engine->trained()
                      ? engine->Rank()
                      : mivid::HeuristicRanking(dataset, heuristic, base_dim);
      }
      const std::vector<int> ids = mivid::RankingIds(ranking);
      curve.accuracy.push_back(mivid::AccuracyAtN(ids, truth, options.top_n));
      if (round == options.feedback_rounds) break;
      for (size_t i = 0; i < ids.size() && i < options.top_n; ++i) {
        auto it = truth.find(ids[i]);
        given[ids[i]] =
            it != truth.end() ? it->second : mivid::BagLabel::kIrrelevant;
      }
      Span learn(&t->learn);
      std::vector<std::pair<int, mivid::BagLabel>> labels(given.begin(),
                                                          given.end());
      (void)engine->SetLabels(labels);
      (void)engine->Retrain();
    }
    result.curves.push_back(std::move(curve));
    if (std::string_view(engine_name) == "milrf") {
      result.mil_summary = engine->run_summary();
      for (const mivid::MilRoundStats& s : result.mil_summary.rounds) {
        t->smo_iterations += s.smo_iterations;
        t->support_vectors += static_cast<int64_t>(s.support_vectors);
      }
    }
  }
  return result;
}

}  // namespace

Status RunPaperLoop(const Args& args, Report* report) {
  mivid::SetGlobalThreadCount(args.threads);

  // Set-up: the clip scripts and their ground truth (the oracle input),
  // a few ms each. It runs 16 times here and 16 more before every later
  // loop, outside the clip timers; the median is reported.
  std::vector<Clip> clips;
  size_t incidents = 0;
  Samples setup_s;
  const auto setup = [&] {
    clips = PaperClips();
    incidents = 0;
    for (const Clip& clip : clips) {
      mivid::TrafficWorld world(clip.scenario);
      incidents += world.Run().incidents.size();
    }
  };
  TimeSetup(16, setup, &setup_s);
  report->Info("incidents", std::to_string(incidents));
  report->Info("scenario_seeds",
               StrFormat("[%llu,%llu]",
                         static_cast<unsigned long long>(
                             clips[0].scenario.seed),
                         static_cast<unsigned long long>(
                             clips[1].scenario.seed)));

  // Untraced loops over both clips until the window is spent (at least
  // one loop; two when a window is set, so every run has a repeat).
  std::vector<Samples> clip_ms(clips.size());
  std::vector<std::string> first_keys;
  std::vector<mivid::ExperimentResult> first_results;
  double loop_seconds = 0.0;
  int64_t frames = 0;
  int loops = 0;
  const Clock::time_point window = Clock::now();
  const int max_loops = args.trace ? 1 : 1000;
  while (loops < max_loops &&
         (loops == 0 || (!args.smoke() && loops < 2) ||
          SecondsSince(window) < args.seconds)) {
    if (loops > 0) TimeSetup(16, setup, &setup_s);
    for (size_t c = 0; c < clips.size(); ++c) {
      const Clock::time_point t0 = Clock::now();
      Result<mivid::ExperimentResult> r =
          mivid::RunRfExperiment(clips[c].scenario, clips[c].options);
      const double ms = MsSince(t0);
      report->ops.Record(c == 0 ? "fig8_tunnel" : "fig9_intersection",
                         r.ok());
      if (!r.ok()) return r.status();
      clip_ms[c].Add(ms);
      loop_seconds += ms / 1000.0;
      frames += r.value().total_frames;
      CheckShape(r.value(), report);
      const std::string key = CurveKey(r.value());
      if (loops == 0) {
        first_keys.push_back(key);
        first_results.push_back(r.value());
      } else {
        report->Check(key == first_keys[c],
                      "curves differ between loops: " + key);
      }
    }
    ++loops;
  }
  double mil_final = 0.0;
  for (const mivid::ExperimentResult& r : first_results) {
    mil_final += MilFinal(r) / static_cast<double>(first_results.size());
    report->Info("curves." + r.scenario, "\"" + CurveKey(r) + "\"");
  }

  if (!args.trace) {
    report->Set("setup_s", setup_s.Median(), "s");
    report->Set("peak_rss_mb", SelfPeakRssMb(), "MB");
    report->Set("mil_acc20_final", mil_final, "fraction");
    report->Set("throughput_per_s", frames / loop_seconds, "1/s");
    report->Set("primary_p50_ms", clip_ms[0].Median(), "ms");
    report->Set("primary_p90_ms", clip_ms[0].Quantile(0.9), "ms");
    report->Set("secondary_p50_ms", clip_ms[1].Median(), "ms");
    report->Set("secondary_p90_ms", clip_ms[1].Quantile(0.9), "ms");
    report->Info("vision_fps", StrFormat("%.6g", frames / loop_seconds));
    report->InfoSamples("fig8_clip_ms", clip_ms[0], 0.99);
    report->InfoSamples("fig9_clip_ms", clip_ms[1], 0.99);
    report->Info("loops", std::to_string(loops));
    return Status::OK();
  }

  // Traced: the mirror, once over both clips, against the untraced loop.
  Layers t;
  const Clock::time_point traced0 = Clock::now();
  for (size_t c = 0; c < clips.size(); ++c) {
    Result<mivid::ExperimentResult> r = MirrorExperiment(clips[c], &t);
    report->ops.Record("mirror", r.ok());
    if (!r.ok()) return r.status();
    report->Check(CurveKey(r.value()) == first_keys[c],
                  "traced mirror differs from RunRfExperiment: " +
                      CurveKey(r.value()) + " vs " + first_keys[c]);
  }
  const double traced_wall = SecondsSince(traced0);
  report->Set("trafficsim.step_s", t.step, "s");
  report->Set("trafficsim.render_s", t.render, "s");
  report->Set("segment.ingest_s", t.seg_ingest, "s");
  report->Set("segment.refine_busy_s", t.refine_busy, "s");
  report->Set("segment.refine_wall_s", t.refine_wall, "s");
  report->Set("track.observe_s", t.track, "s");
  report->Set("event.extract_s", t.extract, "s");
  report->Set("mil.dataset_s", t.dataset, "s");
  report->Set("eval.oracle_s", t.oracle, "s");
  report->Set("retrieval.learn_s", t.learn, "s");
  report->Set("retrieval.rank_s", t.rank, "s");
  report->Set("event.windows", static_cast<double>(t.windows), "count");
  report->Set("event.ts", static_cast<double>(t.ts), "count");
  report->Set("svm.smo_iterations", static_cast<double>(t.smo_iterations),
              "count");
  report->Set("svm.support_vectors", static_cast<double>(t.support_vectors),
              "count");
  report->Set("paper_loop.coverage", t.Covered() / traced_wall, "fraction");
  report->Set("trace.overhead", traced_wall / loop_seconds - 1.0,
              "fraction");
  // Which layer dominates is a finding, not a check: an optimization of
  // the renderer may legitimately hand the lead to another layer.
  const std::pair<double, const char*> layers[] = {
      {t.step, "trafficsim.step_s"},     {t.render, "trafficsim.render_s"},
      {t.seg_ingest, "segment.ingest_s"}, {t.refine_wall, "segment.refine_wall_s"},
      {t.track, "track.observe_s"},      {t.extract, "event.extract_s"},
      {t.dataset, "mil.dataset_s"},      {t.oracle, "eval.oracle_s"},
      {t.learn, "retrieval.learn_s"},    {t.rank, "retrieval.rank_s"}};
  report->Info("largest_layer",
               StrFormat("\"%s\"", std::max_element(std::begin(layers),
                                                    std::end(layers))
                                       ->second));
  return Status::OK();
}

}  // namespace perfbench
