// retrieval_sessions: the analyst conversation serve_sessions sends over
// the wire, run in process on ground-truth-track cameras. Each client
// thread is one analyst: open -> (rank -> feedback) x4 -> rank, labelling
// every shown result from the oracle. No sockets, no disk and no vision
// work in the window: retrieval and SVM training carry all the time, on
// one thread per session as on a daemon worker.
//
// Rank and feedback times are taken per session (the mean of its five
// ranks, of its four feedback rounds). A single call's time depends on
// the round and the camera, and the per-call median fell in a gap
// between those clusters: over ten runs its IQR was 25-36% of the median,
// against 1-3% for the per-session median. Many cameras of both kinds
// keep the per-session quantiles off the gaps between cameras.
//
// The traced run also measures the layers the same conversation crosses
// when served: the serve_sessions and fleet_multicam daemons with access
// logs (short windows), and the ingest path replayed in process.

#include <algorithm>
#include <latch>
#include <map>
#include <mutex>
#include <thread>

#include "common/string_util.h"
#include "common/thread_pool.h"
#include "fixtures.h"
#include "retrieval/session.h"
#include "workloads.h"

namespace perfbench {

using mivid::BagLabel;
using mivid::Result;
using mivid::Status;
using mivid::StrFormat;

namespace {

constexpr int kCameras = 24;
constexpr int kRounds = 4;

/// One analyst session in process; adds its open time and its mean rank
/// and feedback times to `timings`. False when the session could not be
/// created or a feedback round was refused (counted as failed).
bool RunLocalSession(const GtDatabase& gt, const std::string& camera,
                     Report* report, SessionTimings* timings,
                     SessionTrace* trace) {
  Clock::time_point t0 = Clock::now();
  Result<mivid::RetrievalSession> session = mivid::RetrievalSession::Create(
      gt.corpora.at(camera).dataset, ServedSessionOptions());
  timings->open_ms.Add(MsSince(t0));
  report->ops.Record("open", session.ok());
  if (!session.ok()) return false;
  std::vector<Label> shown;
  double rank_ms = 0.0, feedback_ms = 0.0;
  for (int round = 0;; ++round) {
    t0 = Clock::now();
    const std::vector<mivid::ScoredBag> top = session.value().CurrentTopK(20);
    rank_ms += MsSince(t0);
    report->ops.Record("rank", true);
    shown.clear();
    for (const mivid::ScoredBag& b : top) {
      shown.push_back(Label{camera, b.bag_id, OracleLabel(gt, camera, b.bag_id)});
    }
    if (round == kRounds) {
      trace->final_ranking = RankingJson(top);
      trace->final_top = shown;
      timings->rank_ms.Add(rank_ms / (kRounds + 1));
      timings->feedback_ms.Add(feedback_ms / kRounds);
      return true;
    }
    trace->rounds.push_back(shown);
    std::vector<std::pair<int, BagLabel>> labels;
    for (const Label& l : shown) labels.emplace_back(l.bag, l.label);
    t0 = Clock::now();
    const Status fed = session.value().SubmitFeedback(labels);
    feedback_ms += MsSince(t0);
    report->ops.Record("feedback", fed.ok());
    if (!fed.ok()) return false;
  }
}

/// A session rebuilt from the first conversation's labels (the journal
/// resume path, in process) must rank exactly as the live one did.
void CheckResume(const GtDatabase& gt, const std::string& camera,
                 const SessionTrace& trace, Report* report) {
  std::vector<std::pair<int, BagLabel>> labels;
  for (const std::vector<Label>& round : trace.rounds) {
    for (const Label& l : round) labels.emplace_back(l.bag, l.label);
  }
  Result<mivid::RetrievalSession> resumed = mivid::RetrievalSession::Create(
      gt.corpora.at(camera).dataset, ServedSessionOptions());
  const bool restored =
      resumed.ok() &&
      resumed.value().Restore(labels, static_cast<int>(trace.rounds.size()))
          .ok();
  report->Check(restored && RankingJson(resumed.value().CurrentTopK(20)) ==
                                trace.final_ranking,
                "session on " + camera +
                    " resumed from its labels ranks differently");
}

/// The served-path layers: short traced runs of the daemon workloads
/// and the in-process ingest replay, each in its own scratch directory.
Status ServedLayers(const Args& args, Report* report) {
  Args served = args;
  served.seconds = args.smoke() ? 0.0 : std::max(1.0, args.seconds / 4);
  served.work_dir = args.work_dir + "/served";
  MIVID_RETURN_IF_ERROR(RunServeSessions(served, report));
  served.work_dir = args.work_dir + "/fleet";
  MIVID_RETURN_IF_ERROR(RunFleetMulticam(served, report));
  return IngestLayers(args.seed, args.work_dir + "/ingest", report);
}

}  // namespace

Status RunRetrievalSessions(const Args& args, Report* report) {
  if (args.trace) MIVID_RETURN_IF_ERROR(ServedLayers(args, report));

  const std::vector<CameraSpec> cams = MixedCameras(kCameras);
  std::vector<std::string> camera_ids;
  for (const CameraSpec& c : cams) camera_ids.push_back(c.id);

  // Retrieval runs serially inside a session, as on a daemon worker;
  // the parallelism is across analysts.
  mivid::SetGlobalThreadCount(1);

  // Set-up: simulate the cameras and extract their corpora and oracle,
  // six times here and six more after the window; the median is
  // reported.
  GtDatabase gt;
  Samples setup_s;
  const auto setup = [&] { gt = BuildGtCorpora(cams); };
  TimeSetup(6, setup, &setup_s);

  // One session per camera before the window: every later session on
  // that camera must repeat its final ranking, and the accuracy is the
  // mean over every camera however short the window.
  std::map<std::string, SessionTrace> firsts;
  for (const std::string& camera : camera_ids) {
    SessionTimings unused;
    SessionTrace trace;
    if (!RunLocalSession(gt, camera, report, &unused, &trace)) {
      return Status::Internal("first session on " + camera + " failed");
    }
    firsts.emplace(camera, std::move(trace));
  }
  // The program's footprint (corpora and sessions), taken before the
  // window's timing samples grow with the session rate.
  const double rss_mb = SelfPeakRssMb();

  const std::vector<std::vector<std::string>> order =
      SeededCameraSets(args.seed, camera_ids, 1);
  const int clients = args.threads;
  SessionTimings timings;
  int64_t sessions = 0;
  std::mutex mu;
  std::latch ready(clients + 1);
  Clock::time_point end;
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      ready.arrive_and_wait();
      SessionTimings mine;
      int64_t done = 0;
      for (int64_t k = 0;; ++k) {
        if (k >= 2 && (args.smoke() || Clock::now() >= end)) break;
        const std::string& camera =
            order[static_cast<size_t>(c * 3 + k) % order.size()][0];
        SessionTrace trace;
        if (!RunLocalSession(gt, camera, report, &mine, &trace)) continue;
        ++done;
        report->Check(firsts.at(camera).final_ranking == trace.final_ranking,
                      "final ranking of " + camera +
                          " differs between identical sessions");
      }
      std::lock_guard<std::mutex> lock(mu);
      timings.open_ms.Append(mine.open_ms);
      timings.rank_ms.Append(mine.rank_ms);
      timings.feedback_ms.Append(mine.feedback_ms);
      sessions += done;
    });
  }
  const Clock::time_point start = Clock::now();
  end = start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(args.seconds));
  ready.arrive_and_wait();
  for (std::thread& t : threads) t.join();
  const double window_s = SecondsSince(start);
  TimeSetup(6, setup, &setup_s);

  double accuracy = 0.0;
  for (const auto& [camera, trace] : firsts) {
    CheckResume(gt, camera, trace, report);
    accuracy += FinalAccuracy(trace);
  }
  accuracy /= static_cast<double>(firsts.size());
  report->Info("clients", std::to_string(clients));
  report->InfoSamples("rank_ms", timings.rank_ms, 0.99);
  report->InfoSamples("feedback_ms", timings.feedback_ms, 0.99);
  report->InfoSamples("open_ms", timings.open_ms, 0.99);

  if (!args.trace) {
    report->Set("setup_s", setup_s.Median(), "s");
    report->Set("peak_rss_mb", rss_mb, "MB");
    report->Set("mil_acc20_final", accuracy, "fraction");
    report->Set("throughput_per_s", sessions / window_s, "1/s");
    report->Set("primary_p50_ms", timings.rank_ms.Median(), "ms");
    report->Set("primary_p90_ms", timings.rank_ms.Quantile(0.9), "ms");
    report->Set("secondary_p50_ms", timings.feedback_ms.Median(), "ms");
    report->Set("secondary_p90_ms", timings.feedback_ms.Quantile(0.9), "ms");
    report->Info("sessions_per_s", StrFormat("%.6g", sessions / window_s));
    return Status::OK();
  }
  // This workload's own layers, timed in the loop above (they replace
  // the served run's in-process replay of the same calls).
  report->Set("retrieval.topk_us", timings.rank_ms.Median() * 1000.0, "us");
  report->Set("retrieval.feedback_us", timings.feedback_ms.Median() * 1000.0,
              "us");
  return Status::OK();
}

}  // namespace perfbench
