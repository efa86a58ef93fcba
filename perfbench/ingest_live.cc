// ingest_live: writes beside reads on one `mivid_cli serve` daemon.
// Writer connections stream per-frame track observations as `ingest`
// batches into cameras of their own, cutting every clip and publishing
// it as a new corpus epoch, as `mivid_cli stream` does. After a fixed
// number of clips a writer moves on to a fresh camera, so corpus sizes
// stay the same however long the window is. One reader connection loops
// open -> rank -> rank (pinned: must not change across a publish) ->
// feedback -> refresh -> rank -> close on the cameras being written.

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <latch>
#include <mutex>
#include <thread>

#include "common/string_util.h"
#include "db/video_db.h"
#include "ingest/camera_ingestor.h"
#include "obs/json.h"
#include "serve/session_manager.h"
#include "session_run.h"
#include "trafficsim/scenarios.h"
#include "trafficsim/world.h"
#include "workloads.h"

namespace perfbench {

using mivid::Result;
using mivid::Status;
using mivid::StrFormat;

namespace {

constexpr int kClipsPerCamera = 4;
constexpr int kBatchFrames = 50;
constexpr int kTunnelFrames = 1200;
constexpr int kIntersectionFrames = 800;

/// One simulated clip, as observations and as ready-made request tails.
struct StreamClip {
  mivid::GroundTruth gt;
  std::vector<mivid::FrameObservations> frames;  ///< generation-relative
  std::vector<mivid::IncidentRecord> incidents;  ///< generation-relative
  std::vector<std::string> tails;  ///< ingest line after the camera id
};

/// One camera's worth of clips. Writers rotate through kSequences of
/// them, so every run streams (and the probe ranks) the same spread of
/// content whatever each writer's speed.
struct Sequence {
  std::vector<StreamClip> clips;
};
constexpr int kSequences = 8;

/// The rest of an `ingest` line after its camera id (same encoding as
/// `mivid_cli stream`: %.17g keeps coordinates bit-exact).
std::string IngestTail(const std::vector<mivid::FrameObservations>& frames,
                       const std::vector<mivid::IncidentRecord>& incidents,
                       bool cut) {
  std::string line = "\",\"frames\":[";
  for (size_t f = 0; f < frames.size(); ++f) {
    if (f > 0) line += ',';
    line += "{\"frame\":" + std::to_string(frames[f].frame) + ",\"obs\":[";
    for (size_t o = 0; o < frames[f].observations.size(); ++o) {
      const mivid::TrackObservation& obs = frames[f].observations[o];
      if (o > 0) line += ',';
      line += StrFormat(
          "{\"track\":%d,\"x\":%.17g,\"y\":%.17g,"
          "\"bbox\":[%.17g,%.17g,%.17g,%.17g]}",
          obs.track_id, obs.centroid.x, obs.centroid.y, obs.bbox.min_x,
          obs.bbox.min_y, obs.bbox.max_x, obs.bbox.max_y);
    }
    line += "]}";
  }
  line += "],\"incidents\":[";
  for (size_t i = 0; i < incidents.size(); ++i) {
    if (i > 0) line += ',';
    line += StrFormat("{\"type\":\"%s\",\"begin\":%d,\"end\":%d,"
                      "\"vehicles\":[",
                      mivid::IncidentTypeName(incidents[i].type),
                      incidents[i].begin_frame, incidents[i].end_frame);
    for (size_t v = 0; v < incidents[i].vehicle_ids.size(); ++v) {
      if (v > 0) line += ',';
      line += std::to_string(incidents[i].vehicle_ids[v]);
    }
    line += "]}";
  }
  return line + "],\"cut\":" + (cut ? "true" : "false") +
         ",\"publish\":false}";
}

/// Simulates sequence `s`'s clips from the benchmark seed.
Sequence MakeSequence(uint64_t seed, int s) {
  Sequence sequence;
  int offset = 0;
  for (int j = 0; j < kClipsPerCamera; ++j) {
    mivid::ScenarioSpec spec;
    const uint64_t clip_seed =
        seed * 1000 + 500 + static_cast<uint64_t>(s * 16 + j);
    if (s % 2 == 0) {
      mivid::TunnelScenarioOptions o;
      o.total_frames = kTunnelFrames;
      o.seed = clip_seed;
      spec = mivid::MakeTunnelScenario(o);
    } else {
      mivid::IntersectionScenarioOptions o;
      o.total_frames = kIntersectionFrames;
      o.seed = clip_seed;
      spec = mivid::MakeIntersectionScenario(o);
    }
    StreamClip clip;
    mivid::TrafficWorld world(spec);
    clip.gt = world.Run();
    clip.frames.resize(static_cast<size_t>(clip.gt.total_frames));
    for (int f = 0; f < clip.gt.total_frames; ++f) {
      clip.frames[static_cast<size_t>(f)].frame = offset + f;
    }
    for (const mivid::Track& track : clip.gt.tracks) {
      for (const mivid::TrackPoint& p : track.points) {
        if (p.frame < 0 || p.frame >= clip.gt.total_frames) continue;
        mivid::TrackObservation obs;
        obs.track_id = track.id;
        obs.centroid = p.centroid;
        obs.bbox = p.bbox;
        clip.frames[static_cast<size_t>(p.frame)].observations.push_back(obs);
      }
    }
    clip.incidents = clip.gt.incidents;
    for (mivid::IncidentRecord& incident : clip.incidents) {
      incident.begin_frame += offset;
      incident.end_frame += offset;
    }
    for (size_t begin = 0; begin < clip.frames.size(); begin += kBatchFrames) {
      const size_t end = std::min(clip.frames.size(), begin + kBatchFrames);
      const bool last = end == clip.frames.size();
      clip.tails.push_back(IngestTail(
          {clip.frames.begin() + static_cast<long>(begin),
           clip.frames.begin() + static_cast<long>(end)},
          last ? clip.incidents : std::vector<mivid::IncidentRecord>{}, last));
    }
    offset += clip.gt.total_frames;
    sequence.clips.push_back(std::move(clip));
  }
  return sequence;
}

/// The "late_observations" count of an ingest reply.
int64_t LateObservations(const std::string& response) {
  const size_t at = response.find("\"late_observations\":");
  return at == std::string::npos
             ? 0
             : std::strtoll(response.c_str() + at + 20, nullptr, 10);
}

/// Streamed cameras are "q<sequence>-w<writer>-g<generation>"; the batch
/// twin of every camera of a sequence is "q<sequence>".
std::string TwinOf(const std::string& camera) {
  return camera.substr(0, camera.find('-'));
}

/// Batch-extracted twin of every sequence: the oracle labels and the
/// reference corpora.
Result<GtDatabase> BuildMirror(const std::string& path,
                               const std::vector<Sequence>& sequences) {
  mivid::VideoDbOptions options;
  options.create_if_missing = true;
  MIVID_ASSIGN_OR_RETURN(std::unique_ptr<mivid::VideoDb> db,
                         mivid::VideoDb::Open(path, options));
  GtDatabase mirror;
  for (size_t s = 0; s < sequences.size(); ++s) {
    for (const StreamClip& clip : sequences[s].clips) {
      mivid::ClipInfo info;
      info.camera_id = StrFormat("q%zu", s);
      info.total_frames = clip.gt.total_frames;
      MIVID_ASSIGN_OR_RETURN(
          int id, db->IngestClip(info, clip.gt.tracks, clip.gt.incidents));
      (void)id;
    }
  }
  mivid::QueryEngine engine(db.get());
  for (size_t s = 0; s < sequences.size(); ++s) {
    const std::string camera = StrFormat("q%zu", s);
    MIVID_ASSIGN_OR_RETURN(mivid::CameraCorpus corpus,
                           engine.BuildCorpus(camera, mivid::QueryOptions{}));
    mirror.corpora.emplace(camera, std::move(corpus));
  }
  return mirror;
}

/// What a writer has published: its current camera and how many epochs
/// that camera has.
struct WriterState {
  std::mutex mu;
  std::string camera;
  int64_t epochs = 0;
};

uint64_t DirBytes(const std::string& path) {
  uint64_t bytes = 0;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(path, ec)) {
    if (entry.is_regular_file(ec)) bytes += entry.file_size(ec);
  }
  return bytes;
}

/// In-process replay of sequence 0's clips through the layers the
/// daemon's ingest, publish and refresh commands call.
Status InProcessLayers(const std::string& dir, const Sequence& sequence,
                       Report* report) {
  mivid::VideoDbOptions db_options;
  db_options.create_if_missing = true;
  MIVID_ASSIGN_OR_RETURN(std::unique_ptr<mivid::VideoDb> db,
                         mivid::VideoDb::Open(dir + "/db", db_options));
  const std::string snap = dir + "/snap";
  std::filesystem::create_directories(snap);
  mivid::CorpusManager corpora(db.get(), mivid::QueryOptions{}, snap);
  mivid::SessionManager sessions(db.get(), &corpora,
                                 mivid::SessionManagerOptions{});
  mivid::IngestOptions options;
  options.query = mivid::QueryOptions{};
  const std::string camera = "replay";
  mivid::CameraIngestor ingestor(camera, db.get(), &corpora, options);
  Samples observe_us, cut_ms, publish_ms, refresh_ms, publish_bytes;
  int64_t lag_max = 0, late = 0;
  std::shared_ptr<mivid::ServeSession> session;
  for (const StreamClip& clip : sequence.clips) {
    for (const mivid::FrameObservations& frame : clip.frames) {
      const Clock::time_point t0 = Clock::now();
      Result<mivid::CameraIngestor::FrameResult> r = ingestor.Observe(frame);
      observe_us.Add(MsSince(t0) * 1000.0);
      report->ops.Record("observe", r.ok());
      if (!r.ok()) return r.status();
      late += r.value().late_observations;
      lag_max = std::max<int64_t>(lag_max, ingestor.stats().lag_frames);
    }
    for (const mivid::IncidentRecord& incident : clip.incidents) {
      MIVID_RETURN_IF_ERROR(ingestor.AddIncident(
          incident.type, incident.begin_frame, incident.end_frame,
          incident.vehicle_ids));
    }
    Clock::time_point t0 = Clock::now();
    Result<mivid::CameraIngestor::CutResult> cut = ingestor.Cut();
    cut_ms.Add(MsSince(t0));
    report->ops.Record("cut", cut.ok());
    if (!cut.ok()) return cut.status();
    const uint64_t before = DirBytes(snap);
    t0 = Clock::now();
    Result<std::shared_ptr<const mivid::CorpusEpoch>> published =
        corpora.Publish(camera);
    publish_ms.Add(MsSince(t0));
    report->ops.Record("publish", published.ok());
    if (!published.ok()) return published.status();
    publish_bytes.Add(static_cast<double>(DirBytes(snap) - before));
    if (session == nullptr) {
      MIVID_ASSIGN_OR_RETURN(mivid::SessionManager::OpenResult opened,
                             sessions.Open("reader", camera, "milrf"));
      session = opened.session;
      continue;
    }
    std::lock_guard<std::mutex> lock(session->mu);
    t0 = Clock::now();
    const Status refreshed = sessions.Refresh(session.get());
    refresh_ms.Add(MsSince(t0));
    report->ops.Record("refresh", refreshed.ok());
  }
  report->Set("ingest.observe_us_per_frame", observe_us.Median(), "us");
  report->Set("ingest.cut_ms", cut_ms.Median(), "ms");
  report->Set("serve.publish_ms", publish_ms.Median(), "ms");
  report->Set("db.bytes_per_publish", publish_bytes.Median(), "bytes");
  report->Set("serve.refresh_ms", refresh_ms.Median(), "ms");
  report->Set("ingest.lag_frames_max", static_cast<double>(lag_max),
              "frames");
  report->Set("ingest.late_observations", static_cast<double>(late), "count");
  return Status::OK();
}

}  // namespace

Status RunIngestLive(const Args& args, Report* report) {
  // At least two writers, so clip cuts on different cameras overlap.
  const int num_writers = std::max(2, args.threads);

  // Set-up, three times (median reported): simulate the writers' clips
  // into request lines, build the batch twin and its oracle, and start
  // the daemon on an empty database.
  Samples setup_s;
  std::unique_ptr<TempDir> dir;
  std::unique_ptr<Daemon> daemon;
  std::vector<Sequence> sequences;
  GtDatabase mirror;
  for (int i = 0; i < 3; ++i) {
    daemon.reset();
    dir.reset();
    const Clock::time_point t0 = Clock::now();
    dir = std::make_unique<TempDir>(args.work_dir + "/ingest" +
                                    std::to_string(i));
    sequences.clear();
    for (int s = 0; s < kSequences; ++s) {
      sequences.push_back(MakeSequence(args.seed, s));
    }
    MIVID_ASSIGN_OR_RETURN(mirror, BuildMirror(dir->path() + "/mirror",
                                               sequences));
    mivid::VideoDbOptions create;
    create.create_if_missing = true;
    MIVID_RETURN_IF_ERROR(
        mivid::VideoDb::Open(dir->path() + "/db", create).status());
    std::vector<std::string> argv = {
        args.cli, "--threads=" + std::to_string(args.threads), "serve",
        dir->path() + "/db", "none", "--tcp-port=0",
        "--snapshot-dir=" + dir->path() + "/snap"};
    if (args.trace) argv.push_back("--access-log=" + dir->path() + "/access.log");
    MIVID_ASSIGN_OR_RETURN(daemon, Daemon::Start(argv, {},
                                                 dir->path() + "/daemon.log"));
    setup_s.Add(SecondsSince(t0));
  }
  report->Info("daemon", StrFormat("{\"cmd\":\"serve\",\"threads\":%d,"
                                   "\"writers\":%d,\"readers\":1}",
                                   args.threads, num_writers));

  std::vector<Conn> writer_conns;
  for (int w = 0; w < num_writers; ++w) {
    MIVID_ASSIGN_OR_RETURN(Conn conn, Conn::Connect(daemon->endpoint(), report));
    writer_conns.push_back(std::move(conn));
  }
  MIVID_ASSIGN_OR_RETURN(Conn reader, Conn::Connect(daemon->endpoint(), report));
  reader.set_record(args.trace);

  std::vector<WriterState> states(static_cast<size_t>(num_writers));
  std::vector<Samples> publish_ms(static_cast<size_t>(num_writers));
  // The first camera of each sequence that got all its clips without a
  // failed request; the quality probe ranks these after the window.
  std::vector<std::string> clean_camera(kSequences);
  std::vector<int64_t> clean_late(kSequences, 0);  ///< dropped observations
  int sequences_clean = 0;
  std::mutex clean_mu;
  std::atomic<int64_t> frames{0};
  std::atomic<int> writers_running{num_writers};
  std::latch ready(num_writers + 2);
  Clock::time_point end;
  Clock::time_point start;
  double writers_s = 0.0;
  std::mutex writers_s_mu;

  std::vector<std::thread> threads;
  for (int w = 0; w < num_writers; ++w) {
    threads.emplace_back([&, w] {
      Conn& conn = writer_conns[static_cast<size_t>(w)];
      WriterState& state = states[static_cast<size_t>(w)];
      std::string response;
      ready.arrive_and_wait();
      // Each generation streams the next sequence into a fresh camera. A
      // failed request leaves its camera in an unknown state; the writer
      // simply moves on. Writers run until the window is spent and every
      // sequence has a clean camera.
      auto done = [&] {
        std::lock_guard<std::mutex> lock(clean_mu);
        return sequences_clean == kSequences;
      };
      bool stop = false;
      for (int gen = 0; !stop; ++gen) {
        const bool time_up = args.smoke() || Clock::now() >= end;
        if (time_up && (done() || gen >= 400)) break;
        const int s = (w + gen * num_writers) % kSequences;
        const Sequence& sequence = sequences[static_cast<size_t>(s)];
        const std::string camera = StrFormat("q%d-w%d-g%d", s, w, gen);
        const std::string prefix =
            "{\"cmd\":\"ingest\",\"v\":\"1.1\",\"camera\":\"" + camera;
        int64_t late = 0;
        for (size_t j = 0; j < sequence.clips.size() && !stop; ++j) {
          bool ok = true;
          for (const std::string& tail : sequence.clips[j].tails) {
            ok = ok && conn.Call("ingest", prefix + tail, &response);
            late += ok ? LateObservations(response) : 0;
          }
          ok = ok && conn.Call("publish",
                               "{\"cmd\":\"publish\",\"camera\":\"" +
                                   camera + "\"}",
                               &response,
                               &publish_ms[static_cast<size_t>(w)]);
          if (!ok) break;
          frames += sequence.clips[j].gt.total_frames;
          {
            std::lock_guard<std::mutex> lock(state.mu);
            if (state.camera != camera) state.epochs = 0;
            state.camera = camera;
            ++state.epochs;
          }
          if (j + 1 == sequence.clips.size()) {
            std::lock_guard<std::mutex> lock(clean_mu);
            std::string& clean = clean_camera[static_cast<size_t>(s)];
            if (clean.empty()) {
              clean = camera;
              clean_late[static_cast<size_t>(s)] = late;
              ++sequences_clean;
            }
          }
          stop = !args.smoke() && Clock::now() >= end && done();
        }
      }
      {
        std::lock_guard<std::mutex> lock(writers_s_mu);
        writers_s = std::max(writers_s, SecondsSince(start));
      }
      --writers_running;
    });
  }

  Samples live_rank_ms;
  int64_t pinned_checks = 0, spanned_publish = 0, reader_sessions = 0;
  threads.emplace_back([&] {
    std::string response;
    ready.arrive_and_wait();
    for (int64_t k = 0; writers_running.load() > 0 || reader_sessions == 0;
         ++k) {
      WriterState& state = states[static_cast<size_t>(k % num_writers)];
      std::string camera;
      int64_t epochs = 0;
      {
        std::lock_guard<std::mutex> lock(state.mu);
        camera = state.camera;
        epochs = state.epochs;
      }
      if (epochs == 0) {
        if (writers_running.load() == 0 && k > 4 * num_writers) break;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        continue;
      }
      const std::string id = StrFormat("r-%lld", static_cast<long long>(k));
      const std::string oracle_camera = TwinOf(camera);
      reader.set_session(id);
      const std::string rank =
          "{\"cmd\":\"rank\",\"session\":\"" + id + "\",\"top\":20}";
      if (!reader.Call("open",
                       "{\"cmd\":\"open\",\"session\":\"" + id +
                           "\",\"camera\":\"" + camera + "\"}",
                       &response)) {
        break;
      }
      std::string first, again, shown_response;
      bool ok = reader.Call("rank", rank, &first, &live_rank_ms);
      // Every eighth session lets a publish land on its camera before
      // ranking again (bounded: the writer may have moved on or stopped).
      const Clock::time_point wait0 = Clock::now();
      bool spanned = false;
      while (ok && k % 8 == 0 && MsSince(wait0) < 100.0) {
        {
          std::lock_guard<std::mutex> lock(state.mu);
          if (state.camera != camera) break;
          if (state.epochs > epochs) {
            spanned = true;
            break;
          }
        }
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
      ok = ok && reader.Call("rank", rank, &again, &live_rank_ms);
      if (ok) {
        ++pinned_checks;
        spanned_publish += spanned ? 1 : 0;
        report->Check(RankingBytes(first) == RankingBytes(again) &&
                          !RankingBytes(first).empty(),
                      "pinned ranking of " + camera +
                          " changed across a publish");
      }
      std::vector<Label> labels;
      if (ok) {
        Result<mivid::JsonValue> doc = mivid::ParseJson(again);
        const mivid::JsonValue* ranking =
            doc.ok() ? doc.value().Find("ranking") : nullptr;
        if (ranking != nullptr && ranking->is_array()) {
          for (const mivid::JsonValue& item : ranking->array) {
            const int bag = static_cast<int>(item.Find("bag")->number);
            labels.push_back(
                Label{camera, bag, OracleLabel(mirror, oracle_camera, bag)});
          }
        }
      }
      ok = ok && reader.Call("feedback",
                             "{\"cmd\":\"feedback\",\"session\":\"" + id +
                                 "\",\"labels\":" +
                                 LabelsJson(labels, false) + "}",
                             &response);
      ok = ok && reader.Call("refresh",
                             "{\"cmd\":\"refresh\",\"session\":\"" + id +
                                 "\"}",
                             &response);
      ok = ok && reader.Call("rank", rank, &response, &live_rank_ms);
      ok = reader.Call("close",
                       "{\"cmd\":\"close\",\"session\":\"" + id +
                           "\",\"discard\":true}",
                       &response) &&
           ok;
      if (!ok) break;
      ++reader_sessions;
    }
  });

  start = Clock::now();
  end = start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(args.seconds));
  ready.arrive_and_wait();
  for (std::thread& t : threads) t.join();

  report->Check(spanned_publish > 0,
                "no pinned-ranking check spanned a concurrent publish");

  // Quality probe on each sequence's clean camera: the full analyst
  // conversation, checked against the batch-extracted twin (same clips,
  // so the same corpus). Streamed equals batch only when no observation
  // arrived for a track the stream had already retired (a gap longer
  // than the daemon's retire window, docs/ingest.md); sequences whose
  // stream dropped such late observations are skipped and listed.
  Samples probe_acc;
  std::string skipped;
  {
    SessionTimings probe_t;
    for (int s = 0; s < kSequences; ++s) {
      const std::string& camera = clean_camera[static_cast<size_t>(s)];
      if (camera.empty()) {
        report->CheckFailed(StrFormat("sequence %d never streamed cleanly", s));
        continue;
      }
      if (clean_late[static_cast<size_t>(s)] > 0) {
        skipped += StrFormat("%s\"%s\"", skipped.empty() ? "" : ",",
                             camera.c_str());
        continue;
      }
      GtDatabase twin;
      twin.corpora.emplace(camera, mirror.corpora.at(TwinOf(camera)));
      SessionTrace trace;
      if (!RunSession(reader, twin, "probe-" + camera, {camera}, 4,
                      &probe_t, &trace)) {
        report->CheckFailed("quality probe on " + camera + " failed");
        continue;
      }
      report->Check(trace.final_ranking ==
                        ReferenceRanking(twin, {camera}, trace.rounds),
                    "streamed " + camera +
                        " ranks differently from its batch-extracted twin");
      probe_acc.Add(FinalAccuracy(trace));
    }
  }
  report->Info("probe_skipped_late_observations", "[" + skipped + "]");
  const double rss = daemon->PeakRssMb();
  report->Check(daemon->Shutdown(), "ingest daemon did not shut down cleanly");

  Samples publish_all;
  for (const Samples& s : publish_ms) publish_all.Append(s);
  report->Info("pinned_checks", std::to_string(pinned_checks));
  report->Info("pinned_checks_across_publish", std::to_string(spanned_publish));
  report->Info("reader_sessions", std::to_string(reader_sessions));
  if (!args.trace) {
    report->Set("setup_s", setup_s.Median(), "s");
    report->Set("peak_rss_mb", rss, "MB");
    report->Set("mil_acc20_final",
                probe_acc.size() > 0 ? probe_acc.Sum() / probe_acc.size() : 0,
                "fraction");
    report->Set("throughput_per_s", frames.load() / writers_s, "1/s");
    report->Set("primary_p50_ms", live_rank_ms.Median(), "ms");
    report->Set("primary_p90_ms", live_rank_ms.Quantile(0.9), "ms");
    report->Set("secondary_p50_ms", publish_all.Median(), "ms");
    report->Set("secondary_p90_ms", publish_all.Quantile(0.9), "ms");
    report->Info("ingest_frames_per_s",
                 StrFormat("%.6g", frames.load() / writers_s));
    report->InfoSamples("live_rank_ms", live_rank_ms, 0.99);
    report->InfoSamples("publish_ms", publish_all, 0.99);
    return Status::OK();
  }

  const AccessJoin join =
      JoinAccessLog(dir->path() + "/access.log", reader.records());
  report->Set("serve.queue_ms", join.Phase("rank", "queue_ms").Quantile(0.99),
              "ms");
  report->Info("access_log_joined", std::to_string(join.joined));
  TempDir replay(args.work_dir + "/ingest-replay");
  return InProcessLayers(replay.path(), sequences[0], report);
}

Status IngestLayers(uint64_t seed, const std::string& dir, Report* report) {
  TempDir replay(dir);
  return InProcessLayers(replay.path(), MakeSequence(seed, 0), report);
}

}  // namespace perfbench
