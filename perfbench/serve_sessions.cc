// serve_sessions: closed-loop analysts against one `mivid_cli serve`
// daemon over a database of ground-truth-track cameras (tunnel and
// intersection clips). Each client is one analyst that waits for every
// reply: open -> (rank -> feedback) x4 -> rank -> close, labelling every
// shown result from the oracle. Render and segment do no work here.

#include <map>

#include "common/string_util.h"
#include "db/video_db.h"
#include "retrieval/session.h"
#include "serve/protocol.h"
#include "serve/session_manager.h"
#include "session_run.h"
#include "workloads.h"

namespace perfbench {

using mivid::Result;
using mivid::Status;
using mivid::StrFormat;

namespace {

constexpr int kCameras = 8;
constexpr int kRounds = 4;

/// In-process timings of the layers a served session calls, replaying
/// the conversations the daemon served.
void InProcessLayers(const std::string& db_path, const GtDatabase& gt,
                     const std::map<std::string, SessionTrace>& firsts,
                     const std::vector<std::string>& lines, Report* report) {
  Samples parse_us;
  for (int rep = 0; rep < 3; ++rep) {
    for (const std::string& line : lines) {
      const Clock::time_point t0 = Clock::now();
      Result<mivid::ServeRequest> req = mivid::ParseServeRequest(line);
      parse_us.Add(MsSince(t0) * 1000.0);
      report->ops.Record("parse", req.ok());
    }
  }
  Samples topk_us, feedback_us, save_us;
  mivid::VideoDbOptions db_options;
  Result<std::unique_ptr<mivid::VideoDb>> db =
      mivid::VideoDb::Open(db_path, db_options);
  report->ops.Record("journal_open", db.ok());
  if (!db.ok()) return;
  mivid::CorpusManager corpora(db.value().get(), mivid::QueryOptions{}, "");
  mivid::SessionManager sessions(db.value().get(), &corpora,
                                 mivid::SessionManagerOptions{});
  for (int rep = 0; rep < 3; ++rep) {
    for (const auto& [camera, trace] : firsts) {
      Result<mivid::RetrievalSession> session =
          mivid::RetrievalSession::Create(gt.corpora.at(camera).dataset,
                                          ServedSessionOptions());
      Result<mivid::SessionManager::OpenResult> journal =
          sessions.Open("journal-" + camera, camera, "milrf");
      report->ops.Record("inprocess_open", session.ok() && journal.ok());
      if (!session.ok() || !journal.ok()) continue;
      mivid::ServeSession& served = *journal.value().session;
      for (const std::vector<Label>& round : trace.rounds) {
        Clock::time_point t0 = Clock::now();
        (void)session.value().CurrentTopK(20);
        topk_us.Add(MsSince(t0) * 1000.0);
        std::vector<std::pair<int, mivid::BagLabel>> labels;
        for (const Label& l : round) labels.emplace_back(l.bag, l.label);
        t0 = Clock::now();
        const Status fed = session.value().SubmitFeedback(labels);
        feedback_us.Add(MsSince(t0) * 1000.0);
        report->ops.Record("inprocess_feedback", fed.ok());
        (void)served.session->SubmitFeedback(labels);
        t0 = Clock::now();
        const Status saved = sessions.Save(served);
        save_us.Add(MsSince(t0) * 1000.0);
        report->ops.Record("journal_save", saved.ok());
      }
      (void)sessions.Close("journal-" + camera, /*discard=*/true);
    }
  }
  report->Set("obs.request_parse_us", parse_us.Median(), "us");
  report->Set("retrieval.topk_us", topk_us.Median(), "us");
  report->Set("retrieval.feedback_us", feedback_us.Median(), "us");
  report->Set("db.journal_save_us", save_us.Median(), "us");
}

}  // namespace

Status RunServeSessions(const Args& args, Report* report) {
  const std::vector<CameraSpec> cams = MixedCameras(kCameras);
  std::vector<std::string> camera_ids;
  for (const CameraSpec& c : cams) camera_ids.push_back(c.id);

  // Set-up, three times (median reported): simulate the database and its
  // oracle, start the daemon, and cold-load every camera's corpus.
  Samples setup_s;
  std::unique_ptr<TempDir> dir;
  std::unique_ptr<Daemon> daemon;
  GtDatabase gt;
  for (int i = 0; i < 3; ++i) {
    daemon.reset();
    dir.reset();
    const Clock::time_point t0 = Clock::now();
    dir = std::make_unique<TempDir>(args.work_dir + "/serve" +
                                    std::to_string(i));
    MIVID_ASSIGN_OR_RETURN(gt, BuildGtDatabase(dir->path() + "/db", cams));
    std::vector<std::string> argv = {
        args.cli, "--threads=" + std::to_string(args.threads), "serve",
        dir->path() + "/db", "none", "--tcp-port=0"};
    if (args.trace) argv.push_back("--access-log=" + dir->path() + "/access.log");
    MIVID_ASSIGN_OR_RETURN(daemon, Daemon::Start(argv, {},
                                                 dir->path() + "/daemon.log"));
    MIVID_RETURN_IF_ERROR(WarmCameras(daemon->endpoint(), camera_ids, report));
    setup_s.Add(SecondsSince(t0));
  }
  report->Info("daemon", StrFormat("{\"cmd\":\"serve\",\"threads\":%d,"
                                   "\"cameras\":%d}",
                                   args.threads, kCameras));

  // Each client cycles through the cameras, in the seed's order, from
  // its own offset.
  const std::vector<std::vector<std::string>> order =
      SeededCameraSets(args.seed, camera_ids, 1);
  SessionLoop loop(args, report, &gt);
  loop.plan = [&](int client, int64_t k) {
    return order[static_cast<size_t>(client * 3 + k) % order.size()];
  };
  MIVID_RETURN_IF_ERROR(loop.Run(daemon->endpoint(), kRounds));
  const double rss = daemon->PeakRssMb();
  report->Check(daemon->Shutdown(), "serve daemon did not shut down cleanly");

  loop.VerifyAgainstReferences();
  const SessionTimings& t = loop.timings;
  if (!args.trace) {
    report->Set("setup_s", setup_s.Median(), "s");
    report->Set("peak_rss_mb", rss, "MB");
    report->Set("mil_acc20_final", loop.MeanFinalAccuracy(), "fraction");
    report->Set("throughput_per_s", loop.SessionsPerSecond(), "1/s");
    report->Set("primary_p50_ms", t.rank_ms.Median(), "ms");
    report->Set("primary_p90_ms", t.rank_ms.Quantile(0.9), "ms");
    report->Set("secondary_p50_ms", t.feedback_ms.Median(), "ms");
    report->Set("secondary_p90_ms", t.feedback_ms.Quantile(0.9), "ms");
    report->Info("sessions_per_s", StrFormat("%.6g", loop.SessionsPerSecond()));
    report->InfoSamples("rank_ms", t.rank_ms, 0.99);
    report->InfoSamples("feedback_ms", t.feedback_ms, 0.99);
    report->InfoSamples("open_ms", t.open_ms, 0.99);
    return Status::OK();
  }

  // Traced: phases from the daemon's access log, joined to the client's
  // own latency of the same request.
  const AccessJoin join = JoinAccessLog(dir->path() + "/access.log",
                                        loop.requests);
  report->Set("serve.queue_ms", join.Phase("rank", "queue_ms").Quantile(0.99),
              "ms");
  report->Set("serve.rank_ms", join.Phase("rank", "rank_ms").Median(), "ms");
  report->Set("serve.serialize_ms",
              join.Phase("rank", "serialize_ms").Median(), "ms");
  report->Set("serve.transport_ms", join.Transport("rank").Median(), "ms");
  const Samples bytes = join.Phase("rank", "bytes_out");
  report->Set("serve.bytes_out_per_rank",
              bytes.size() > 0 ? bytes.Sum() / bytes.size() : 0.0, "bytes");
  report->Set("serve.corpus_ms", join.ColdCorpusMs().Median(), "ms");
  report->Set("serve.rejected", static_cast<double>(loop.rejected), "count");
  report->Info("access_log_joined", std::to_string(join.joined));
  InProcessLayers(dir->path() + "/db", gt, loop.firsts, loop.recorded, report);
  return Status::OK();
}

}  // namespace perfbench
