// Micro benchmarks (google-benchmark) for the compute-heavy components:
// one-class SMO training, kernel/Gram evaluation, segmentation throughput,
// tracking association, polynomial fitting, codec, and the end-to-end
// retrieval pipeline on a short clip.

#include <benchmark/benchmark.h>

#include <sched.h>

#include <algorithm>
#include <filesystem>
#include <thread>

#include "common/rng.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "db/feature_store.h"
#include "eval/experiment.h"
#include "ingest/camera_ingestor.h"
#include "linalg/simd.h"
#include "db/video_db.h"
#include "serve/corpus_manager.h"
#include "obs/metrics.h"
#include "retrieval/mil_rf_engine.h"
#include "segment/segmenter.h"
#include "segment/spcpe.h"
#include "serve/server.h"
#include "svm/one_class_svm.h"
#include "track/assignment.h"
#include "trafficsim/renderer.h"
#include "trajectory/polyfit.h"

namespace mivid {
namespace {

std::vector<Vec> RandomPoints(size_t n, size_t dim, uint64_t seed) {
  Rng rng(seed);
  std::vector<Vec> points(n, Vec(dim));
  for (auto& p : points) {
    for (auto& v : p) v = rng.Uniform();
  }
  return points;
}

void BM_OneClassSvmTrain(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const auto points = RandomPoints(n, 9, 11);
  OneClassSvmOptions options;
  options.nu = 0.2;
  options.kernel.sigma = 0.5;
  OneClassSvmTrainer trainer(options);
  for (auto _ : state) {
    auto model = trainer.Train(points);
    benchmark::DoNotOptimize(model);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_OneClassSvmTrain)->Arg(16)->Arg(64)->Arg(256)->Arg(1024);

void BM_OneClassSvmPredict(benchmark::State& state) {
  const auto points = RandomPoints(256, 9, 13);
  OneClassSvmOptions options;
  options.nu = 0.3;
  auto model = OneClassSvmTrainer(options).Train(points);
  const auto queries = RandomPoints(100, 9, 17);
  size_t qi = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        model.value().DecisionValue(queries[qi++ % queries.size()]));
  }
}
BENCHMARK(BM_OneClassSvmPredict);

void BM_GramMatrix(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const auto points = RandomPoints(n, 9, 19);
  KernelParams params;
  for (auto _ : state) {
    GramMatrix gram(params, points);
    benchmark::DoNotOptimize(gram.At(0, 0));
  }
}
BENCHMARK(BM_GramMatrix)->Arg(64)->Arg(256)->Arg(1024);

/// The hot inner primitive on its own: one RBF kernel row (squared
/// distances via the expanded form, then the deterministic exp) against
/// n packed points, under the active dispatch tier.
void BM_RbfKernelRow(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const size_t dim = 9;
  const auto points = RandomPoints(n, dim, 29);
  std::vector<const Vec*> ptrs;
  for (const auto& p : points) ptrs.push_back(&p);
  const PackedFeatureMatrix packed =
      PackedFeatureMatrix::FromPoints(ptrs, dim);
  const Vec& query = points[0];
  const double query_norm = Dot(query, query);
  const double gamma = 1.0 / (2.0 * 0.5 * 0.5);
  std::vector<double> d2(n), row(n);
  const SimdOpsTable& ops = SimdOps();
  for (auto _ : state) {
    ops.expanded_d2_row(query.data(), query_norm, dim, packed.data(),
                        packed.stride(), packed.squared_norms(), n,
                        d2.data());
    ops.rbf_from_d2_row(gamma, d2.data(), n, row.data());
    benchmark::DoNotOptimize(row.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
  state.SetLabel(SimdTierName(ActiveSimdTier()));
}
BENCHMARK(BM_RbfKernelRow)->Arg(256)->Arg(4096);

// --- Threaded variants: range(0) = problem size, range(1) = threads. ---
// Thread count 1 exercises the serial fallback; larger counts exercise
// the pool. Restores the default (MIVID_THREADS / hardware) afterwards.

/// CPUs this process may run on, as `nproc` counts them.
int UsableCpus() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) return CPU_COUNT(&set);
  return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
}

/// Skips a *Threads row that asks for more threads than usable CPUs: it
/// would time contention, not scaling. The row stays in the report with
/// error_occurred and a "skipped: ..." message (tools/bench_diff.py reads
/// it as a skip).
bool SkipAboveNproc(benchmark::State& state, int64_t threads) {
  const int cpus = UsableCpus();
  if (threads <= cpus) return false;
  state.SkipWithError(StrFormat("skipped: %lld threads > nproc %d",
                                static_cast<long long>(threads), cpus)
                          .c_str());
  return true;
}

void BM_GramMatrixThreads(benchmark::State& state) {
  if (SkipAboveNproc(state, state.range(1))) return;
  const size_t n = static_cast<size_t>(state.range(0));
  SetGlobalThreadCount(static_cast<int>(state.range(1)));
  const auto points = RandomPoints(n, 9, 19);
  KernelParams params;
  for (auto _ : state) {
    GramMatrix gram(params, points);
    benchmark::DoNotOptimize(gram.At(0, 0));
  }
  SetGlobalThreadCount(0);
}
BENCHMARK(BM_GramMatrixThreads)
    ->ArgNames({"n", "threads"})
    ->Args({1024, 1})
    ->Args({1024, 2})
    ->Args({1024, 4})
    ->Args({1024, 8});

void BM_RankBagsThreads(benchmark::State& state) {
  if (SkipAboveNproc(state, state.range(1))) return;
  const size_t num_bags = static_cast<size_t>(state.range(0));
  SetGlobalThreadCount(static_cast<int>(state.range(1)));
  // Corpus: num_bags bags x 8 instances of dim-9 vectors.
  Rng rng(41);
  MilDataset dataset;
  for (size_t b = 0; b < num_bags; ++b) {
    MilBag bag;
    bag.id = static_cast<int>(b);
    for (int t = 0; t < 8; ++t) {
      MilInstance inst;
      inst.bag_id = bag.id;
      inst.instance_id = t;
      inst.features = Vec(9);
      for (auto& v : inst.features) v = rng.Uniform();
      inst.raw_features = inst.features;
      bag.instances.push_back(std::move(inst));
    }
    dataset.AddBag(std::move(bag));
  }
  MilRfOptions options;
  options.base_dim = 3;
  MilRfEngine engine(&dataset, options);
  for (size_t b = 0; b < 8; ++b) {
    (void)dataset.SetLabel(static_cast<int>(b), BagLabel::kRelevant);
  }
  if (!engine.Learn().ok()) {
    state.SkipWithError("Learn failed");
    SetGlobalThreadCount(0);
    return;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.Rank());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(num_bags * 8));
  SetGlobalThreadCount(0);
}
BENCHMARK(BM_RankBagsThreads)
    ->ArgNames({"bags", "threads"})
    ->Args({512, 1})
    ->Args({512, 2})
    ->Args({512, 4})
    ->Args({512, 8});

/// Two vehicles crossing the tunnel in opposite directions at frame `f`.
std::vector<VehicleState> TwoVehicles(int f) {
  VehicleState a, b;
  a.id = 0;
  a.mode = MotionMode::kLaneFollow;
  a.position = {40.0 + f * 0.8, 108};
  a.shade = 220;
  b.id = 1;
  b.mode = MotionMode::kLaneFollow;
  b.position = {280.0 - f * 0.6, 130};
  b.shade = 60;
  return {a, b};
}

/// Frames per VisionTracks batch (eval/experiment.cc).
constexpr int kVisionBatchFrames = 64;

void BM_RenderBatch(benchmark::State& state) {
  // One VisionTracks batch: sequential Prepare, then parallel Run.
  SetGlobalThreadCount(static_cast<int>(state.range(0)));
  Renderer renderer(MakeTunnelLayout());
  std::vector<RenderJob> jobs(kVisionBatchFrames);
  std::vector<Frame> frames(kVisionBatchFrames, renderer.background());
  int f = 0;
  for (auto _ : state) {
    for (RenderJob& job : jobs) job = renderer.Prepare(TwoVehicles(f++ % 300));
    ParallelFor(jobs.size(), 1, [&](size_t begin, size_t end) {
      for (size_t i = begin; i < end; ++i) renderer.Run(jobs[i], &frames[i]);
    });
    benchmark::DoNotOptimize(frames.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * kVisionBatchFrames);
  SetGlobalThreadCount(0);
}
BENCHMARK(BM_RenderBatch)
    ->ArgName("threads")
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_RenderPrepare(benchmark::State& state) {
  // The sequential pass of a batch: capture one frame and jump the noise
  // stream past its 76,800 draws.
  Renderer renderer(MakeTunnelLayout());
  int f = 0;
  for (auto _ : state) {
    RenderJob job = renderer.Prepare(TwoVehicles(f++ % 300));
    benchmark::DoNotOptimize(job);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RenderPrepare);

/// One tunnel frame's 38,400 Box-Muller uniform pairs: drawn from one
/// stream (Rng::BoxMullerUniforms), or as Renderer::Run draws them, in four
/// lanes of 64-pair blocks under a pinned tier.
void BM_NoiseUniforms(benchmark::State& state, bool lanes, SimdTier tier) {
  if (lanes && tier == SimdTier::kAvx2 && !Avx2Available()) {
    state.SkipWithError("skipped: avx2 unavailable");
    return;
  }
  SetSimdTier(static_cast<int>(tier));
  constexpr size_t kPairs = 38400;
  constexpr size_t kLaneBlock = 64;
  std::vector<double> u1(kPairs), u2(kPairs);
  Rng rng(3);
  const RngJump& lane_jump = RngJump::Cached(2 * kPairs / 4);
  const SimdOpsTable& ops = SimdOps();
  for (auto _ : state) {
    if (!lanes) {
      rng.BoxMullerUniforms(kPairs, u1.data(), u2.data());
    } else {
      RngState lanes[4] = {rng.state()};
      for (int j = 1; j < 4; ++j) {
        lanes[j] = lanes[j - 1];
        lane_jump.Apply(&lanes[j]);
      }
      for (size_t b = 0; b < kPairs; b += 4 * kLaneBlock) {
        benchmark::DoNotOptimize(ops.noise_uniform_lanes(
            lanes, kLaneBlock, kLaneBlock, u1.data() + b, u2.data() + b));
      }
      rng.set_state(lanes[3]);
    }
    benchmark::DoNotOptimize(u1.data());
    benchmark::DoNotOptimize(u2.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(kPairs));
  SetSimdTier(-1);
}
BENCHMARK_CAPTURE(BM_NoiseUniforms, serial, false, SimdTier::kScalar)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_NoiseUniforms, lanes_scalar, true, SimdTier::kScalar)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_NoiseUniforms, lanes_avx2, true, SimdTier::kAvx2)
    ->Unit(benchmark::kMicrosecond);

/// The renderer's noise kernel on its own: one tunnel frame's worth of
/// Box-Muller pairs (320x240 pixels) under a pinned tier.
void BM_BoxMullerRow(benchmark::State& state, SimdTier tier) {
  if (tier == SimdTier::kAvx2 && !Avx2Available()) {
    state.SkipWithError("skipped: avx2 unavailable");
    return;
  }
  SetSimdTier(static_cast<int>(tier));
  constexpr size_t kPairs = 38400;
  std::vector<double> u1(kPairs), u2(kPairs), g_cos(kPairs), g_sin(kPairs);
  Rng(3).BoxMullerUniforms(kPairs, u1.data(), u2.data());
  const SimdOpsTable& ops = SimdOps();
  for (auto _ : state) {
    ops.box_muller_row(u1.data(), u2.data(), kPairs, g_cos.data(),
                       g_sin.data());
    benchmark::DoNotOptimize(g_cos.data());
    benchmark::DoNotOptimize(g_sin.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(kPairs));
  SetSimdTier(-1);
}
BENCHMARK_CAPTURE(BM_BoxMullerRow, scalar, SimdTier::kScalar)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_BoxMullerRow, avx2, SimdTier::kAvx2)
    ->Unit(benchmark::kMicrosecond);

/// The renderer's quantize pass on its own: one tunnel frame's 38,400
/// noise pairs under a pinned tier.
void BM_QuantizeNoisyPairs(benchmark::State& state, SimdTier tier) {
  if (tier == SimdTier::kAvx2 && !Avx2Available()) {
    state.SkipWithError("skipped: avx2 unavailable");
    return;
  }
  SetSimdTier(static_cast<int>(tier));
  constexpr size_t kPairs = 38400;
  const Renderer renderer(MakeTunnelLayout());
  const Frame& background = renderer.background();
  std::vector<double> u1(kPairs), u2(kPairs), g_cos(kPairs), g_sin(kPairs);
  Rng(3).BoxMullerUniforms(kPairs, u1.data(), u2.data());
  SimdOps().box_muller_row(u1.data(), u2.data(), kPairs, g_cos.data(),
                           g_sin.data());
  std::vector<uint8_t> bytes(2 * kPairs);
  std::vector<uint32_t> flagged(kPairs);
  const SimdOpsTable& ops = SimdOps();
  for (auto _ : state) {
    benchmark::DoNotOptimize(ops.quantize_noisy_pairs(
        background.pixels().data(), g_cos.data(), g_sin.data(), kPairs, 0.0,
        6.0, 0.5 - 1e-11, bytes.data(), flagged.data()));
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(kPairs));
  SetSimdTier(-1);
}
BENCHMARK_CAPTURE(BM_QuantizeNoisyPairs, scalar, SimdTier::kScalar)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_QuantizeNoisyPairs, avx2, SimdTier::kAvx2)
    ->Unit(benchmark::kMicrosecond);

/// The background model's post-warmup pass on its own: one tunnel frame
/// through the selective-mean update, mask and sum, in the 4096-pixel
/// stripes UpdateBatch uses, under a pinned tier.
void BM_SelectiveMeanStripe(benchmark::State& state, SimdTier tier) {
  if (tier == SimdTier::kAvx2 && !Avx2Available()) {
    state.SkipWithError("skipped: avx2 unavailable");
    return;
  }
  SetSimdTier(static_cast<int>(tier));
  Renderer renderer(MakeTunnelLayout());
  const Frame frame = renderer.Render(TwoVehicles(0));
  const Frame& background = renderer.background();
  std::vector<double> mean(background.pixels().begin(),
                           background.pixels().end());
  Mask mask(frame.size());
  const SimdOpsTable& ops = SimdOps();
  constexpr size_t kStripe = 4096;
  for (auto _ : state) {
    uint32_t sum = 0;
    for (size_t begin = 0; begin < frame.size(); begin += kStripe) {
      sum += ops.selective_mean_stripe(
          frame.pixels().data() + begin,
          std::min(kStripe, frame.size() - begin), 0.02, 18.0, true,
          mean.data() + begin, mask.data() + begin);
    }
    benchmark::DoNotOptimize(sum);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(frame.size()));
  SetSimdTier(-1);
}
BENCHMARK_CAPTURE(BM_SelectiveMeanStripe, scalar, SimdTier::kScalar)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_SelectiveMeanStripe, avx2, SimdTier::kAvx2)
    ->Unit(benchmark::kMicrosecond);

/// Connected components of one refined tunnel mask (two vehicles).
void BM_ExtractBlobs(benchmark::State& state) {
  Renderer renderer(MakeTunnelLayout());
  VehicleSegmenter segmenter;
  for (int f = 0; f < 15; ++f) (void)segmenter.Ingest(renderer.Render({}));
  const PendingSegmentation pending =
      segmenter.Ingest(renderer.Render(TwoVehicles(100)));
  const SegmenterOptions& options = segmenter.options();
  Mask mask = pending.background.mask;
  mask = RunSpcpe(pending.frame, &mask, pending.background.bg_mean,
                  options.spcpe)
             .partition;
  mask = CleanMask(mask, pending.frame.width(), pending.frame.height(),
                   options.clean_iterations);
  size_t blobs = 0;
  for (auto _ : state) {
    const std::vector<Blob> found =
        ExtractBlobs(mask, pending.frame, options.blob);
    blobs = found.size();
    benchmark::DoNotOptimize(found.data());
  }
  state.counters["blobs"] = static_cast<double>(blobs);
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(mask.size()));
}
BENCHMARK(BM_ExtractBlobs)->Unit(benchmark::kMicrosecond);

void BM_BackgroundIngestBatch(benchmark::State& state) {
  // One VisionTracks batch through the stripe-parallel background update
  // of a warmed-up model (selective mean, the default).
  SetGlobalThreadCount(static_cast<int>(state.range(0)));
  Renderer renderer(MakeTunnelLayout());
  std::vector<PendingSegmentation> batch(kVisionBatchFrames);
  for (int f = 0; f < kVisionBatchFrames; ++f) {
    batch[f].frame = renderer.Render(TwoVehicles(f));
  }
  VehicleSegmenter segmenter;
  segmenter.IngestBatch(batch);  // warmup
  for (auto _ : state) {
    segmenter.IngestBatch(batch);
    benchmark::DoNotOptimize(batch.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * kVisionBatchFrames);
  SetGlobalThreadCount(0);
}
BENCHMARK(BM_BackgroundIngestBatch)
    ->ArgName("threads")
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_SegmentClipThreads(benchmark::State& state) {
  if (SkipAboveNproc(state, state.range(1))) return;
  const int frames = static_cast<int>(state.range(0));
  SetGlobalThreadCount(static_cast<int>(state.range(1)));
  // Pre-render a clip with a couple of moving vehicles so SPCPE has work.
  Renderer renderer(MakeTunnelLayout());
  std::vector<Frame> clip;
  clip.reserve(static_cast<size_t>(frames));
  for (int f = 0; f < frames; ++f) {
    clip.push_back(renderer.Render(TwoVehicles(f)));
  }
  for (auto _ : state) {
    // Background ingest, then parallel per-frame SPCPE/cleanup/blob
    // refinement.
    VehicleSegmenter segmenter;
    std::vector<PendingSegmentation> pending;
    pending.reserve(clip.size());
    for (const Frame& frame : clip) pending.push_back(segmenter.Ingest(frame));
    std::vector<std::vector<Blob>> blobs(pending.size());
    ParallelFor(pending.size(), 1, [&](size_t begin, size_t end) {
      for (size_t i = begin; i < end; ++i) {
        blobs[i] = VehicleSegmenter::Refine(pending[i], segmenter.options());
      }
    });
    benchmark::DoNotOptimize(blobs);
  }
  state.SetItemsProcessed(state.iterations() * frames);
  SetGlobalThreadCount(0);
}
BENCHMARK(BM_SegmentClipThreads)
    ->ArgNames({"frames", "threads"})
    ->Args({120, 1})
    ->Args({120, 2})
    ->Args({120, 4})
    ->Args({120, 8})
    ->Unit(benchmark::kMillisecond);

void BM_SegmentFrame(benchmark::State& state) {
  const RoadLayout layout = MakeTunnelLayout();
  Renderer renderer(layout);
  VehicleState v;
  v.id = 0;
  v.mode = MotionMode::kLaneFollow;
  v.position = {160, 110};
  v.shade = 220;
  VehicleSegmenter segmenter;
  // Warm the background model.
  for (int i = 0; i < 15; ++i) {
    (void)segmenter.Process(renderer.Render({}));
  }
  const Frame frame = renderer.Render({v});
  for (auto _ : state) {
    benchmark::DoNotOptimize(segmenter.Process(frame));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(frame.size()));
}
BENCHMARK(BM_SegmentFrame);

void BM_HungarianAssign(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(23);
  Matrix cost(n, n);
  for (size_t r = 0; r < n; ++r) {
    for (size_t c = 0; c < n; ++c) cost.At(r, c) = rng.Uniform();
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(HungarianAssign(cost, 1e9));
  }
}
BENCHMARK(BM_HungarianAssign)->Arg(8)->Arg(32)->Arg(128);

void BM_PolyFit(benchmark::State& state) {
  Rng rng(29);
  Track track;
  for (int f = 0; f <= 500; f += 5) {
    track.points.push_back(
        {f, {f * 0.6 + rng.Gaussian(), 100 + 20 * std::sin(f * 0.01)}, {}});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(FitTrack(track, 4));
  }
}
BENCHMARK(BM_PolyFit);

void BM_TracksCodecRoundtrip(benchmark::State& state) {
  Rng rng(31);
  std::vector<Track> tracks(20);
  for (size_t t = 0; t < tracks.size(); ++t) {
    tracks[t].id = static_cast<int>(t);
    for (int f = 0; f < 500; ++f) {
      tracks[t].points.push_back(
          {f, {rng.Uniform(0, 320), rng.Uniform(0, 240)},
           BBox(0, 0, 16, 8)});
    }
  }
  for (auto _ : state) {
    const std::string bytes = SerializeTracks(tracks);
    auto back = DeserializeTracks(bytes);
    benchmark::DoNotOptimize(back);
    state.counters["bytes"] = static_cast<double>(bytes.size());
  }
}
BENCHMARK(BM_TracksCodecRoundtrip);

/// The serve path end to end minus the socket: RetrievalServer::HandleLine
/// parsing, admission, session lookup, rank, and JSON response encoding.
/// Reports the serve/rank_seconds histogram's p99 (from the metrics
/// registry, i.e. exactly what a production /stats scrape would see) so
/// BENCH_micro.json tracks tail latency, not just the mean.
void BM_ServeRank(benchmark::State& state) {
  namespace fs = std::filesystem;
  const std::string dir =
      (fs::temp_directory_path() / "mivid_bench_serve").string();
  fs::remove_all(dir);
  VideoDbOptions db_options;
  db_options.create_if_missing = true;
  auto opened = VideoDb::Open(dir, db_options);
  if (!opened.ok()) {
    state.SkipWithError(opened.status().ToString().c_str());
    return;
  }
  std::unique_ptr<VideoDb> db = std::move(opened).value();
  TunnelScenarioOptions scenario_options;
  scenario_options.total_frames = 700;
  scenario_options.num_wall_crashes = 1;
  scenario_options.num_sudden_stops = 1;
  scenario_options.num_speeding = 0;
  scenario_options.num_uturns = 0;
  const ScenarioSpec scenario = MakeTunnelScenario(scenario_options);
  TrafficWorld world(scenario);
  const GroundTruth gt = world.Run();
  ClipInfo info;
  info.camera_id = "camA";
  info.total_frames = scenario.total_frames;
  if (!db->IngestClip(info, gt.tracks, gt.incidents).ok()) {
    state.SkipWithError("clip ingest failed");
    return;
  }

  {
    RetrievalServer server(db.get(), ServeOptions{});
    const std::string open_response = server.HandleLine(
        R"({"cmd":"open","session":"bench","camera":"camA"})");
    if (open_response.find("\"ok\":true") == std::string::npos) {
      state.SkipWithError(("open failed: " + open_response).c_str());
      return;
    }
    // The rank_seconds histogram only fills while metrics are on; the
    // registry is process-global, so restore the prior state afterwards.
    const bool metrics_were_enabled = MetricsEnabled();
    EnableMetrics(true);
    MetricsRegistry::Global().GetHistogram("serve/rank_seconds").Reset();
    const std::string rank_line =
        R"({"cmd":"rank","session":"bench","top":20})";
    for (auto _ : state) {
      const std::string response = server.HandleLine(rank_line);
      benchmark::DoNotOptimize(response);
    }
    const HistogramStats rank_stats = MetricsRegistry::Global()
                                          .GetHistogram("serve/rank_seconds")
                                          .Stats();
    state.counters["p50_rank_seconds"] = rank_stats.p50;
    state.counters["p99_rank_seconds"] = rank_stats.p99;
    state.counters["max_rank_seconds"] = rank_stats.max;
    EnableMetrics(metrics_were_enabled);
    server.HandleLine(R"({"cmd":"close","session":"bench"})");
  }
  db.reset();
  fs::remove_all(dir);
}
BENCHMARK(BM_ServeRank)->Unit(benchmark::kMillisecond);

std::vector<FrameObservations> BenchFramesFromTracks(
    const std::vector<Track>& tracks, int total_frames) {
  std::vector<FrameObservations> frames(total_frames);
  for (int f = 0; f < total_frames; ++f) frames[f].frame = f;
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

/// Live-ingest throughput: per-frame Observe over a simulated clip plus
/// the final Cut (incremental window extraction, normalization at the
/// cut, clip persistence, bag staging). items/s is stream frames/s — the
/// ceiling on how many cameras one ingest thread can keep live.
void BM_IngestObserve(benchmark::State& state) {
  namespace fs = std::filesystem;
  const std::string dir =
      (fs::temp_directory_path() / "mivid_bench_ingest").string();
  fs::remove_all(dir);
  VideoDbOptions db_options;
  db_options.create_if_missing = true;
  auto opened = VideoDb::Open(dir, db_options);
  if (!opened.ok()) {
    state.SkipWithError(opened.status().ToString().c_str());
    return;
  }
  std::unique_ptr<VideoDb> db = std::move(opened).value();

  TunnelScenarioOptions scenario_options;
  scenario_options.total_frames = static_cast<int>(state.range(0));
  scenario_options.num_wall_crashes = 1;
  scenario_options.num_sudden_stops = 1;
  scenario_options.num_speeding = 0;
  scenario_options.num_uturns = 0;
  TrafficWorld world(MakeTunnelScenario(scenario_options));
  const GroundTruth gt = world.Run();
  const std::vector<FrameObservations> frames =
      BenchFramesFromTracks(gt.tracks, gt.total_frames);

  const QueryOptions query;
  IngestOptions ingest_options;
  ingest_options.query = query;
  for (auto _ : state) {
    // Fresh ingestor + manager per iteration: stream frames restart at 0
    // and nothing staged accumulates across iterations.
    CorpusManager corpora(db.get(), query);
    CameraIngestor ingestor("camB", db.get(), &corpora, ingest_options);
    for (const FrameObservations& frame : frames) {
      auto observed = ingestor.Observe(frame);
      benchmark::DoNotOptimize(observed);
    }
    auto cut = ingestor.Cut();
    benchmark::DoNotOptimize(cut);
  }
  state.SetItemsProcessed(state.iterations() * gt.total_frames);
  db.reset();
  fs::remove_all(dir);
}
BENCHMARK(BM_IngestObserve)->Arg(400)->Arg(1200);

/// Epoch-publish latency: staging happens off the clock; the timed
/// region is CorpusManager::Publish alone (base + staged tail -> new
/// immutable epoch). Iterations are fixed so the corpus grows to a
/// known size instead of scaling with timer resolution; the histogram
/// counters report what a production /stats scrape would see.
void BM_EpochPublish(benchmark::State& state) {
  namespace fs = std::filesystem;
  const std::string dir =
      (fs::temp_directory_path() / "mivid_bench_publish").string();
  fs::remove_all(dir);
  VideoDbOptions db_options;
  db_options.create_if_missing = true;
  auto opened = VideoDb::Open(dir, db_options);
  if (!opened.ok()) {
    state.SkipWithError(opened.status().ToString().c_str());
    return;
  }
  std::unique_ptr<VideoDb> db = std::move(opened).value();

  const QueryOptions query;
  CorpusManager corpora(db.get(), query);
  IngestOptions ingest_options;
  ingest_options.query = query;
  CameraIngestor ingestor("camP", db.get(), &corpora, ingest_options);

  const bool metrics_were_enabled = MetricsEnabled();
  EnableMetrics(true);
  MetricsRegistry::Global()
      .GetHistogram("serve/epoch_publish_seconds")
      .Reset();

  int offset = 0;
  uint64_t seed = 31;
  for (auto _ : state) {
    state.PauseTiming();
    TunnelScenarioOptions scenario_options;
    scenario_options.total_frames = 300;
    scenario_options.num_wall_crashes = 1;
    scenario_options.num_sudden_stops = 0;
    scenario_options.num_speeding = 1;
    scenario_options.num_uturns = 0;
    scenario_options.seed = seed++;
    TrafficWorld world(MakeTunnelScenario(scenario_options));
    const GroundTruth gt = world.Run();
    std::vector<FrameObservations> frames =
        BenchFramesFromTracks(gt.tracks, gt.total_frames);
    for (FrameObservations& frame : frames) {
      frame.frame += offset;
      if (!ingestor.Observe(frame).ok()) {
        state.SkipWithError("observe failed");
        return;
      }
    }
    offset += gt.total_frames;
    if (!ingestor.Cut().ok()) {
      state.SkipWithError("cut failed");
      return;
    }
    state.ResumeTiming();
    auto epoch = corpora.Publish("camP");
    benchmark::DoNotOptimize(epoch);
  }
  const HistogramStats publish_stats =
      MetricsRegistry::Global()
          .GetHistogram("serve/epoch_publish_seconds")
          .Stats();
  state.counters["p50_publish_seconds"] = publish_stats.p50;
  state.counters["p99_publish_seconds"] = publish_stats.p99;
  const auto last = corpora.Snapshot("camP");
  if (last.ok()) {
    state.counters["final_epoch"] = static_cast<double>(last.value()->id);
    state.counters["final_bags"] =
        static_cast<double>(last.value()->corpus->dataset.bags().size());
  }
  EnableMetrics(metrics_were_enabled);
  db.reset();
  fs::remove_all(dir);
}
BENCHMARK(BM_EpochPublish)->Unit(benchmark::kMillisecond)->Iterations(24);

void BM_EndToEndPipeline(benchmark::State& state) {
  TunnelScenarioOptions scenario_options;
  scenario_options.total_frames = 400;
  scenario_options.num_wall_crashes = 1;
  scenario_options.num_sudden_stops = 1;
  scenario_options.num_speeding = 0;
  scenario_options.num_uturns = 0;
  const ScenarioSpec scenario = MakeTunnelScenario(scenario_options);
  ExperimentOptions options;
  options.pipeline = PipelineMode::kVisionTracks;
  options.feedback_rounds = 2;
  for (auto _ : state) {
    auto result = RunRfExperiment(scenario, options);
    benchmark::DoNotOptimize(result);
    // Quality counters: per-round accuracy@20 of the MIL method plus SMO
    // effort, so BENCH_micro.json tracks retrieval quality alongside time.
    if (result.ok()) {
      for (const auto& curve : result->curves) {
        if (curve.method != "MIL_OneClassSVM") continue;
        for (size_t r = 0; r < curve.accuracy.size(); ++r) {
          state.counters[StrFormat("acc20_round%zu", r)] = curve.accuracy[r];
        }
      }
      int64_t smo_iterations = 0;
      int64_t support_vectors = 0;
      for (const auto& round : result->mil_summary.rounds) {
        smo_iterations += round.smo_iterations;
        support_vectors += static_cast<int64_t>(round.support_vectors);
      }
      state.counters["smo_iterations"] =
          static_cast<double>(smo_iterations);
      state.counters["support_vectors"] =
          static_cast<double>(support_vectors);
    }
  }
  state.SetItemsProcessed(state.iterations() * scenario.total_frames);
}
BENCHMARK(BM_EndToEndPipeline)->Unit(benchmark::kMillisecond);

void BM_EndToEndPipelineThreads(benchmark::State& state) {
  if (SkipAboveNproc(state, state.range(0))) return;
  SetGlobalThreadCount(static_cast<int>(state.range(0)));
  TunnelScenarioOptions scenario_options;
  scenario_options.total_frames = 400;
  scenario_options.num_wall_crashes = 1;
  scenario_options.num_sudden_stops = 1;
  scenario_options.num_speeding = 0;
  scenario_options.num_uturns = 0;
  const ScenarioSpec scenario = MakeTunnelScenario(scenario_options);
  ExperimentOptions options;
  options.pipeline = PipelineMode::kVisionTracks;
  options.feedback_rounds = 2;
  for (auto _ : state) {
    auto result = RunRfExperiment(scenario, options);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() * scenario.total_frames);
  SetGlobalThreadCount(0);
}
BENCHMARK(BM_EndToEndPipelineThreads)
    ->ArgName("threads")
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace mivid

int main(int argc, char** argv) {
  // Stamp the report with whether THIS binary (not the benchmark
  // library, whose own build type is out of our hands) was compiled
  // optimized; bench/run_micro_bench.sh refuses to record numbers
  // without the "optimized" stamp.
#if defined(__OPTIMIZE__) && defined(NDEBUG)
  benchmark::AddCustomContext("mivid_build", "optimized");
#else
  benchmark::AddCustomContext("mivid_build", "unoptimized");
#endif
  benchmark::AddCustomContext(
      "mivid_simd", mivid::SimdTierName(mivid::ActiveSimdTier()));
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
