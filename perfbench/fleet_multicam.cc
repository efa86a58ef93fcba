// fleet_multicam: closed-loop analysts against a coordinator fronting
// two workers over the serve_sessions kind of database. Clients
// alternate 3-camera sessions (scatter-gather + merge) and single-camera
// sessions (byte passthrough). The only workload where cluster/ works.
//
// The benchmark starts the two workers itself on fixed ports and fronts
// them with `mivid_cli coord --workers=...`, rather than using
// `coord --spawn-workers=2`: the placement ring hashes worker endpoints,
// and spawned workers take kernel-assigned ports, so every start placed
// the cameras differently (sessions/s swung 2x between starts of one
// seed). Supervision is not on the request path. Starting the workers
// here also lets each write an access log in the traced run.

#include <algorithm>
#include <map>

#include "cluster/merger.h"
#include "common/string_util.h"
#include "obs/json.h"
#include "retrieval/session.h"
#include "session_run.h"
#include "workloads.h"

namespace perfbench {

using mivid::Result;
using mivid::Status;
using mivid::StrFormat;

namespace {

constexpr int kCameras = 8;
constexpr int kRounds = 4;

/// Workers listen on kWorkerPort and kWorkerPort + 1 (the next pair up
/// when those are taken), so camera placement repeats from run to run.
constexpr int kWorkerPort = 23470;

/// The daemons of one fleet.
struct Fleet {
  std::vector<std::unique_ptr<Daemon>> workers;
  std::unique_ptr<Daemon> coord;
  double PeakRssMb() const {
    double mb = coord->PeakRssMb();
    for (const auto& w : workers) mb += w->PeakRssMb();
    return mb;
  }
  bool Shutdown() {
    bool clean = coord->Shutdown();
    for (auto& w : workers) clean = w->Shutdown() && clean;
    return clean;
  }
};

/// Three daemons share what one daemon gets in serve_sessions: with
/// more, their pools and the coordinator's per-call threads outnumber
/// the CPUs and the tails follow the scheduler.
int DaemonThreads(const Args& args) { return std::max(1, args.threads / 2); }

Result<Fleet> StartFleet(const Args& args, const std::string& dir) {
  Fleet fleet;
  const std::string threads =
      "--threads=" + std::to_string(DaemonThreads(args));
  const std::vector<std::string> env = {
      std::string("MIVID_METRICS=") + (args.trace ? "1" : "0")};
  std::string endpoints;
  for (int w = 0; w < 2; ++w) {
    const std::string id = StrFormat("w%d", w);
    std::vector<std::string> argv = {args.cli, threads, "serve",
                                     dir + "/db", "none", "",
                                     "--worker-id=" + id};
    if (args.trace) {
      argv.push_back("--access-log=" + dir + "/" + id + ".access.log");
    }
    Result<std::unique_ptr<Daemon>> worker = Status::Internal("no port");
    for (int pair = 0; pair < 8 && !worker.ok(); ++pair) {
      argv[5] = StrFormat("--tcp-port=%d", kWorkerPort + 2 * pair + w);
      worker = Daemon::Start(argv, env, dir + "/" + id + ".log");
    }
    if (!worker.ok()) return worker.status();
    endpoints += (endpoints.empty() ? "" : ",") + worker.value()->endpoint();
    fleet.workers.push_back(std::move(worker).value());
  }
  std::vector<std::string> coord = {args.cli, threads, "coord", "none",
                                    "--tcp-port=0", "--workers=" + endpoints};
  if (args.trace) coord.push_back("--access-log=" + dir + "/coord.access.log");
  MIVID_ASSIGN_OR_RETURN(fleet.coord,
                         Daemon::Start(coord, env, dir + "/coord.log"));
  return fleet;
}

/// Coordinator-side phases joined to the workers' lines for the same
/// request (sub-sessions are "<session>-<camera>").
void ClusterLayers(const std::string& dir, const SessionLoop& loop,
                   const GtDatabase& gt, Report* report) {
  const std::vector<AccessEntry> coord_log =
      ReadAccessLog(dir + "/coord.access.log");
  std::vector<AccessEntry> worker_log;
  for (int w = 0; w < 2; ++w) {
    for (AccessEntry& e :
         ReadAccessLog(dir + "/w" + std::to_string(w) + ".access.log")) {
      worker_log.push_back(std::move(e));
    }
  }
  const std::map<RequestKey, AccessEntry> workers = IndexAccessLog(worker_log);
  const std::map<RequestKey, AccessEntry> coords = IndexAccessLog(coord_log);
  Samples merge_ms, scatter_ms, passthrough_ms;
  for (const auto& [key, entry] : coords) {
    const auto& [session, cmd, n] = key;
    auto cameras = loop.session_cameras.find(session);
    if (cmd != "rank" || cameras == loop.session_cameras.end()) continue;
    if (cameras->second.size() == 1) {
      // Passthrough: the worker serves the session under its own id.
      auto direct = workers.find(key);
      if (direct != workers.end()) {
        passthrough_ms.Add(entry.total_ms - direct->second.total_ms);
      }
      continue;
    }
    double slowest = -1.0;
    for (const std::string& camera : cameras->second) {
      auto sub = workers.find(RequestKey{session + "-" + camera, cmd, n});
      if (sub != workers.end()) {
        slowest = std::max(slowest, sub->second.total_ms);
      }
    }
    if (slowest < 0) continue;
    scatter_ms.Add(entry.total_ms - slowest);
    merge_ms.Add(entry.merge_ms);
  }
  int64_t worker_calls = 0;
  for (const AccessEntry& e : worker_log) {
    worker_calls += e.session.rfind("c", 0) == 0 ? 1 : 0;
  }
  report->Set("cluster.merge_ms", merge_ms.Median(), "ms");
  report->Set("cluster.scatter_ms", scatter_ms.Median(), "ms");
  report->Set("cluster.passthrough_ms", passthrough_ms.Median(), "ms");
  report->Set("cluster.worker_calls_per_session",
              loop.sessions > 0 ? static_cast<double>(worker_calls) /
                                      static_cast<double>(loop.sessions)
                                : 0.0,
              "count");
  report->Info("scatter_joined", std::to_string(scatter_ms.size()));
  report->Info("passthrough_joined", std::to_string(passthrough_ms.size()));

  // MergeTopK in process over the per-camera top-20s (initial ranking)
  // of every 3-camera set the clients opened.
  Samples merge_us;
  for (const auto& [key, cameras] : loop.first_cameras) {
    if (cameras.size() < 2) continue;
    std::vector<std::vector<mivid::ClusterScoredBag>> parts;
    for (const std::string& camera : cameras) {
      Result<mivid::RetrievalSession> s = mivid::RetrievalSession::Create(
          gt.corpora.at(camera).dataset, ServedSessionOptions());
      if (!s.ok()) continue;
      std::vector<mivid::ClusterScoredBag> part;
      for (const mivid::ScoredBag& b : s.value().CurrentTopK(20)) {
        part.push_back(mivid::ClusterScoredBag{camera, b.bag_id, b.score});
      }
      parts.push_back(std::move(part));
    }
    for (int rep = 0; rep < 200; ++rep) {
      std::vector<std::vector<mivid::ClusterScoredBag>> copy = parts;
      const Clock::time_point t0 = Clock::now();
      const std::vector<mivid::ClusterScoredBag> merged =
          mivid::MergeTopK(std::move(copy), 20);
      merge_us.Add(MsSince(t0) * 1000.0);
      report->ops.Record("merge", merged.size() == 20);
    }
  }
  report->Set("cluster.merge_us", merge_us.Median(), "us");
}

/// Coordinator counters from cluster_stats (needs MIVID_METRICS=1).
void ClusterCounters(const std::string& endpoint, Report* report) {
  Result<Conn> conn = Conn::Connect(endpoint, report);
  std::string response;
  if (!conn.ok() ||
      !conn.value().Call("cluster_stats", "{\"cmd\":\"cluster_stats\"}",
                         &response)) {
    return;
  }
  Result<mivid::JsonValue> doc = mivid::ParseJson(response);
  const mivid::JsonValue* coord =
      doc.ok() ? doc.value().Find("coordinator") : nullptr;
  const mivid::JsonValue* counters =
      coord != nullptr ? coord->Find("counters") : nullptr;
  auto counter = [&](const char* name) {
    const mivid::JsonValue* v =
        counters != nullptr ? counters->Find(name) : nullptr;
    return v != nullptr && v->is_number() ? v->number : 0.0;
  };
  const double failovers = counter("cluster/sessions_failed_over");
  const double hedged = counter("cluster/hedged_ranks");
  report->Set("cluster.failovers", failovers, "count");
  report->Set("cluster.hedged_ranks", hedged, "count");
  report->Check(failovers == 0 && hedged == 0,
                "fleet failed over or hedged a rank with every worker up");
}

}  // namespace

Status RunFleetMulticam(const Args& args, Report* report) {
  const std::vector<CameraSpec> cams = MixedCameras(kCameras);
  std::vector<std::string> camera_ids;
  for (const CameraSpec& c : cams) camera_ids.push_back(c.id);

  // Set-up, three times (median reported): the database and its oracle,
  // the fleet, and every corpus cold-loaded on its owning worker.
  Samples setup_s;
  std::unique_ptr<TempDir> dir;
  Fleet fleet;
  GtDatabase gt;
  for (int i = 0; i < 3; ++i) {
    if (fleet.coord != nullptr) fleet.Shutdown();
    fleet = Fleet();
    dir.reset();
    const Clock::time_point t0 = Clock::now();
    dir = std::make_unique<TempDir>(args.work_dir + "/fleet" +
                                    std::to_string(i));
    MIVID_ASSIGN_OR_RETURN(gt, BuildGtDatabase(dir->path() + "/db", cams));
    MIVID_ASSIGN_OR_RETURN(fleet, StartFleet(args, dir->path()));
    MIVID_RETURN_IF_ERROR(
        WarmCameras(fleet.coord->endpoint(), camera_ids, report));
    setup_s.Add(SecondsSince(t0));
  }
  report->Info("daemon", StrFormat("{\"cmd\":\"coord\",\"workers\":[\"%s\","
                                   "\"%s\"],\"threads\":%d,\"clients\":%d,"
                                   "\"cameras\":%d}",
                                   fleet.workers[0]->endpoint().c_str(),
                                   fleet.workers[1]->endpoint().c_str(),
                                   DaemonThreads(args), args.threads,
                                   kCameras));

  // Even sessions span three cameras, odd ones one camera; every 3-camera
  // set and every camera come up, in the seed's order.
  SessionLoop loop(args, report, &gt);
  const std::vector<std::vector<std::string>> triples =
      SeededCameraSets(args.seed, camera_ids, 3);
  const std::vector<std::vector<std::string>> singles =
      SeededCameraSets(args.seed, camera_ids, 1);
  loop.plan = [&](int client, int64_t k) {
    const auto& sets = k % 2 == 0 ? triples : singles;
    return sets[static_cast<size_t>(client * 7 + k / 2) % sets.size()];
  };
  MIVID_RETURN_IF_ERROR(loop.Run(fleet.coord->endpoint(), kRounds));

  {
    Result<Conn> conn = Conn::Connect(fleet.coord->endpoint(), report);
    std::string response;
    report->Check(conn.ok() &&
                      conn.value().Call("stats", "{\"cmd\":\"stats\"}",
                                        &response) &&
                      response.find("\"workers_alive\":2") !=
                          std::string::npos,
                  "a worker left the fleet during the run: " + response);
  }
  if (args.trace) ClusterCounters(fleet.coord->endpoint(), report);
  const double rss = fleet.PeakRssMb();
  report->Check(fleet.Shutdown(), "fleet did not shut down cleanly");

  loop.VerifyAgainstReferences();
  const Samples& multi = loop.by_width[3].rank_ms;
  const Samples& single = loop.by_width[1].rank_ms;
  if (!args.trace) {
    report->Set("setup_s", setup_s.Median(), "s");
    report->Set("peak_rss_mb", rss, "MB");
    report->Set("mil_acc20_final", loop.MeanFinalAccuracy(), "fraction");
    report->Set("throughput_per_s", loop.SessionsPerSecond(), "1/s");
    report->Set("primary_p50_ms", multi.Median(), "ms");
    report->Set("primary_p90_ms", multi.Quantile(0.9), "ms");
    report->Set("secondary_p50_ms", single.Median(), "ms");
    report->Set("secondary_p90_ms", single.Quantile(0.9), "ms");
    report->Info("fleet_sessions_per_s",
                 StrFormat("%.6g", loop.SessionsPerSecond()));
    report->InfoSamples("fleet_rank_ms", multi, 0.99);
    report->InfoSamples("fleet_passthrough_rank_ms", single, 0.99);
    report->InfoSamples("fleet_feedback_ms", loop.timings.feedback_ms, 0.99);
    return Status::OK();
  }
  ClusterLayers(dir->path(), loop, gt, report);
  return Status::OK();
}

}  // namespace perfbench
