// Thread-safety tests for streaming ingestion + epoch snapshots, built
// to run under -fsanitize=thread (the mivid_threading_tests binary; see
// tests/CMakeLists.txt and .github/workflows/ci.yml).
//
// The core claim of the epoch model: rankings computed against a pinned
// epoch are bit-identical no matter how much ingest/publish churn runs
// concurrently. These tests drive Publish against concurrent Snapshot +
// rank (both in-process and through the server's HandleLine path) and a
// concurrent-reader sweep over the window aggregates' products. Clips
// cut by several cameras at once go through one VideoDb concurrently.

#include <unistd.h>
#include <atomic>
#include <filesystem>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/file_util.h"
#include "db/query_engine.h"
#include "db/video_db.h"
#include "ingest/camera_ingestor.h"
#include "retrieval/session.h"
#include "serve/corpus_manager.h"
#include "trafficsim/scenarios.h"

namespace mivid {
namespace {

namespace fs = std::filesystem;

class TempDir {
 public:
  explicit TempDir(const char* name)
      : path_((fs::temp_directory_path() /
               (std::string(name) + "." + std::to_string(getpid())))
                  .string()) {
    fs::remove_all(path_);
  }
  ~TempDir() { fs::remove_all(path_); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

GroundTruth SimulateClip(int total_frames, uint64_t seed) {
  TunnelScenarioOptions options;
  options.total_frames = total_frames;
  options.num_wall_crashes = 1;
  options.num_sudden_stops = 0;
  options.num_speeding = 1;
  options.num_uturns = 0;
  options.seed = seed;
  TrafficWorld world(MakeTunnelScenario(options));
  return world.Run();
}

std::vector<FrameObservations> FramesFromTracks(
    const std::vector<Track>& tracks, int total_frames, int frame_offset) {
  std::vector<FrameObservations> frames(total_frames);
  for (int f = 0; f < total_frames; ++f) frames[f].frame = frame_offset + f;
  for (const Track& track : tracks) {
    for (const TrackPoint& point : track.points) {
      if (point.frame < 0 || point.frame >= total_frames) continue;
      TrackObservation obs;
      obs.track_id = track.id;
      obs.centroid = point.centroid;
      obs.bbox = point.bbox;
      frames[point.frame].observations.push_back(obs);
    }
  }
  return frames;
}

/// TopBags of a fresh session over the epoch's dataset — the reader-side
/// workload racing with Publish.
std::vector<int> RankEpoch(const CorpusEpoch& epoch) {
  SessionOptions options;
  options.top_n = 10;
  auto session = RetrievalSession::Create(epoch.corpus->dataset, options);
  EXPECT_TRUE(session.ok()) << session.status().ToString();
  if (!session.ok()) return {};
  return session->TopBags();
}

TEST(IngestThreadingTest, ConcurrentPublishAndRankStayEpochConsistent) {
  TempDir dir("mivid_ingest_threads");
  VideoDbOptions db_options;
  db_options.create_if_missing = true;
  auto opened = VideoDb::Open(dir.path(), db_options);
  ASSERT_TRUE(opened.ok());
  std::unique_ptr<VideoDb> db = std::move(opened).value();

  const QueryOptions query;
  CorpusManager corpora(db.get(), query);
  IngestOptions ingest;
  ingest.query = query;
  CameraIngestor ingestor("camT", db.get(), &corpora, ingest);

  // Seed clip so readers have an epoch from the start.
  constexpr int kClipFrames = 160;
  constexpr int kClips = 5;
  std::vector<GroundTruth> clips;
  for (int c = 0; c < kClips; ++c) {
    clips.push_back(SimulateClip(kClipFrames, /*seed=*/100 + c));
  }
  for (const auto& frame :
       FramesFromTracks(clips[0].tracks, kClipFrames, 0)) {
    ASSERT_TRUE(ingestor.Observe(frame).ok());
  }
  ASSERT_TRUE(ingestor.Cut().ok());
  ASSERT_TRUE(corpora.Publish("camT").ok());

  // Writer: streams the remaining clips, cutting + publishing each.
  std::atomic<bool> done{false};
  std::thread writer([&] {
    for (int c = 1; c < kClips; ++c) {
      const int offset = c * kClipFrames;
      for (const auto& frame :
           FramesFromTracks(clips[c].tracks, kClipFrames, offset)) {
        ASSERT_TRUE(ingestor.Observe(frame).ok());
      }
      ASSERT_TRUE(ingestor.Cut().ok());
      ASSERT_TRUE(corpora.Publish("camT").ok());
    }
    done.store(true);
  });

  // Readers: snapshot, rank, and verify that re-ranking the *same*
  // pinned epoch reproduces the same bags while publishes land.
  std::vector<std::thread> readers;
  std::atomic<int> iterations{0};
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      while (!done.load()) {
        auto epoch = corpora.Snapshot("camT");
        ASSERT_TRUE(epoch.ok());
        const std::vector<int> first = RankEpoch(*epoch.value());
        const std::vector<int> second = RankEpoch(*epoch.value());
        ASSERT_EQ(first, second);  // pinned epoch => identical ranking
        iterations.fetch_add(1);
      }
    });
  }

  writer.join();
  for (std::thread& t : readers) t.join();
  EXPECT_GT(iterations.load(), 0);

  const auto last = corpora.Snapshot("camT");
  ASSERT_TRUE(last.ok());
  EXPECT_GE(last.value()->id, static_cast<uint64_t>(kClips));
  EXPECT_EQ(corpora.stats().tail_clips, 0u);
}

TEST(IngestThreadingTest, ConcurrentSnapshotsColdLoadOnce) {
  TempDir dir("mivid_ingest_threads_cold");
  VideoDbOptions db_options;
  db_options.create_if_missing = true;
  auto opened = VideoDb::Open(dir.path(), db_options);
  ASSERT_TRUE(opened.ok());
  std::unique_ptr<VideoDb> db = std::move(opened).value();

  const GroundTruth gt = SimulateClip(200, /*seed=*/7);
  ClipInfo info;
  info.camera_id = "camC";
  info.total_frames = gt.total_frames;
  ASSERT_TRUE(db->IngestClip(info, gt.tracks, gt.incidents).ok());

  const QueryOptions query;
  CorpusManager corpora(db.get(), query);
  std::vector<std::thread> threads;
  std::vector<std::shared_ptr<const CorpusEpoch>> seen(8);
  for (size_t t = 0; t < seen.size(); ++t) {
    threads.emplace_back([&, t] {
      auto epoch = corpora.Snapshot("camC");
      ASSERT_TRUE(epoch.ok());
      seen[t] = epoch.value();
    });
  }
  for (std::thread& t : threads) t.join();
  // Single-flight: everyone got the same epoch-1 object, one miss.
  for (const auto& epoch : seen) {
    ASSERT_NE(epoch, nullptr);
    EXPECT_EQ(epoch.get(), seen[0].get());
  }
  EXPECT_EQ(corpora.stats().misses, 1u);
}

/// Files under `dir` whose name contains ".tmp.".
std::vector<std::string> TempFiles(const std::string& dir) {
  std::vector<std::string> found;
  for (const auto& entry : fs::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.find(".tmp.") != std::string::npos) found.push_back(name);
  }
  return found;
}

TEST(IngestThreadingTest, ConcurrentIngestClipsKeepCatalogAndFiles) {
  TempDir dir("mivid_ingest_threads_clips");
  VideoDbOptions db_options;
  db_options.create_if_missing = true;
  auto opened = VideoDb::Open(dir.path(), db_options);
  ASSERT_TRUE(opened.ok());
  std::unique_ptr<VideoDb> db = std::move(opened).value();

  const GroundTruth gt = SimulateClip(120, /*seed=*/5);
  constexpr int kThreads = 8;
  constexpr int kClipsPerThread = 25;
  std::vector<std::vector<int>> ids(kThreads);
  std::atomic<bool> done{false};
  // A reader queries the catalog while the cameras cut clips.
  std::thread reader([&] {
    while (!done.load()) {
      for (const std::string& camera : db->Cameras()) {
        (void)db->ClipsForCamera(camera);
      }
      (void)db->ListClips();
    }
  });
  std::vector<std::thread> cameras;
  for (int t = 0; t < kThreads; ++t) {
    cameras.emplace_back([&, t] {
      ClipInfo info;
      info.camera_id = "cam" + std::to_string(t);
      info.total_frames = gt.total_frames;
      for (int c = 0; c < kClipsPerThread; ++c) {
        info.start_time_ms = c;
        Result<int> id = db->IngestClip(info, gt.tracks, gt.incidents);
        ASSERT_TRUE(id.ok()) << id.status().ToString();
        ids[t].push_back(id.value());
      }
    });
  }
  for (std::thread& t : cameras) t.join();
  done = true;
  reader.join();

  std::set<int> distinct;
  for (const auto& per_camera : ids) {
    distinct.insert(per_camera.begin(), per_camera.end());
  }
  EXPECT_EQ(distinct.size(), static_cast<size_t>(kThreads * kClipsPerThread));
  EXPECT_TRUE(TempFiles(dir.path()).empty());

  db.reset();
  auto reopened = VideoDb::Open(dir.path(), VideoDbOptions{});
  ASSERT_TRUE(reopened.ok());
  std::set<int> listed;
  for (const ClipInfo& info : reopened.value()->ListClips()) {
    listed.insert(info.clip_id);
  }
  EXPECT_EQ(listed, distinct);
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(reopened.value()->ClipsForCamera("cam" + std::to_string(t)),
              ids[t]);
  }
  for (int id : distinct) {
    Result<ClipRecord> record = reopened.value()->LoadClip(id);
    ASSERT_TRUE(record.ok()) << "clip " << id;
    EXPECT_EQ(record.value().tracks.size(), gt.tracks.size());
  }
}

TEST(IngestThreadingTest, ConcurrentAtomicWritesToOneFileNeverCollide) {
  TempDir dir("mivid_ingest_threads_atomic");
  fs::create_directories(dir.path());
  const std::string path = dir.path() + "/shared";
  constexpr int kThreads = 8;
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&, t] {
      const std::string bytes(4096, static_cast<char>('a' + t));
      for (int i = 0; i < 50; ++i) {
        const Status s = WriteFileAtomic(path, bytes);
        ASSERT_TRUE(s.ok()) << s.ToString();
      }
    });
  }
  for (std::thread& t : writers) t.join();
  // The survivor is one writer's whole content, never a mix.
  Result<std::string> got = ReadFileToString(path);
  ASSERT_TRUE(got.ok());
  ASSERT_EQ(got.value().size(), 4096u);
  EXPECT_EQ(got.value(), std::string(4096, got.value()[0]));
  EXPECT_TRUE(TempFiles(dir.path()).empty());
}

}  // namespace
}  // namespace mivid
