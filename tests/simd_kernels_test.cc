// Bit-identity and dispatch tests for the SIMD kernel primitives
// (linalg/simd.h), including the pixel kernels, the packed feature
// layout, the early-termination top-k ranking, and the zero-copy corpus
// snapshot.
//
// The load-bearing invariant: every primitive produces bit-identical
// results on every dispatch tier, so rankings never depend on the host's
// instruction set (or on MIVID_SIMD / MIVID_THREADS).

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/file_util.h"
#include "common/rng.h"
#include "db/codec.h"
#include "db/packed_corpus_io.h"
#include "linalg/packed_matrix.h"
#include "linalg/simd.h"
#include "mil/dataset.h"
#include "mil/diverse_density.h"
#include "mil/packed_corpus.h"
#include "retrieval/mil_rf_engine.h"

namespace mivid {
namespace {

namespace fs = std::filesystem;

/// Restores native dispatch however a test leaves the tier.
class TierGuard {
 public:
  ~TierGuard() {
    unsetenv("MIVID_SIMD");
    SetSimdTier(-1);
  }
};

std::vector<double> RandomDoubles(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> out(n);
  for (auto& v : out) v = rng.Gaussian(0.0, 1.0);
  return out;
}

PackedFeatureMatrix PackRandom(const std::vector<Vec>& points) {
  std::vector<const Vec*> ptrs;
  for (const auto& p : points) ptrs.push_back(&p);
  return PackedFeatureMatrix::FromPoints(ptrs, points[0].size());
}

std::vector<Vec> RandomPoints(size_t n, size_t dim, uint64_t seed) {
  Rng rng(seed);
  std::vector<Vec> points(n, Vec(dim));
  for (auto& p : points) {
    for (auto& v : p) v = rng.Gaussian(0.1, 0.5);
  }
  return points;
}

/// Runs `fn` once per available tier and bit-compares the outputs of the
/// later tiers against the scalar reference.
template <typename Fn>
void ExpectTiersAgree(size_t out_len, const Fn& fn) {
  TierGuard guard;
  SetSimdTier(static_cast<int>(SimdTier::kScalar));
  std::vector<double> reference(out_len, 0.0);
  fn(reference.data());
  if (!Avx2Available()) return;
  SetSimdTier(static_cast<int>(SimdTier::kAvx2));
  std::vector<double> avx2(out_len, 0.0);
  fn(avx2.data());
  for (size_t i = 0; i < out_len; ++i) {
    // Bit equality, not tolerance: NaN-safe via the bit pattern.
    EXPECT_EQ(reference[i], avx2[i]) << "lane " << i;
  }
}

TEST(SimdKernelsTest, DistanceRowsMatchScalarAtEveryLength) {
  // Odd lengths cover every main-loop/4-wide/scalar tail combination.
  for (size_t n : {size_t{1}, size_t{3}, size_t{5}, size_t{7}, size_t{8},
                   size_t{9}, size_t{13}, size_t{31}, size_t{64},
                   size_t{257}}) {
    for (size_t dim : {size_t{1}, size_t{3}, size_t{9}, size_t{12}}) {
      const auto points = RandomPoints(n, dim, 1000 * n + dim);
      const auto packed = PackRandom(points);
      const Vec query = RandomPoints(1, dim, 7 * n + dim)[0];
      double query_norm = 0.0;
      for (double v : query) query_norm += v * v;

      ExpectTiersAgree(n, [&](double* out) {
        SimdOps().expanded_d2_row(query.data(), query_norm, dim,
                                  packed.data(), packed.stride(),
                                  packed.squared_norms(), n, out);
      });
      ExpectTiersAgree(n, [&](double* out) {
        SimdOps().direct_d2_row(query.data(), dim, packed.data(),
                                packed.stride(), n, out);
      });
      ExpectTiersAgree(n, [&](double* out) {
        SimdOps().dot_row(query.data(), dim, packed.data(), packed.stride(),
                          n, out);
      });
    }
  }
}

TEST(SimdKernelsTest, DirectRowEqualsSquaredDistanceExactly) {
  const size_t n = 37, dim = 9;
  const auto points = RandomPoints(n, dim, 21);
  const auto packed = PackRandom(points);
  const Vec query = RandomPoints(1, dim, 22)[0];
  std::vector<double> row(n);
  TierGuard guard;
  for (int tier = 0; tier <= (Avx2Available() ? 1 : 0); ++tier) {
    SetSimdTier(tier);
    SimdOps().direct_d2_row(query.data(), dim, packed.data(),
                            packed.stride(), n, row.data());
    for (size_t j = 0; j < n; ++j) {
      EXPECT_EQ(row[j], SquaredDistance(query, points[j])) << j;
    }
  }
}

TEST(SimdKernelsTest, RowsMatchAtUnalignedOffsets) {
  // Row primitives must not assume 32-byte alignment: slice the packed
  // block at every sub-vector offset (bag slices start anywhere).
  const size_t n = 64, dim = 5;
  const auto points = RandomPoints(n, dim, 31);
  const auto packed = PackRandom(points);
  const Vec query = RandomPoints(1, dim, 32)[0];
  const double gamma = 1.7;
  for (size_t offset : {size_t{1}, size_t{2}, size_t{3}, size_t{5}}) {
    const size_t count = n - offset;
    ExpectTiersAgree(count, [&](double* out) {
      SimdOps().direct_d2_row(query.data(), dim, packed.data() + offset,
                              packed.stride(), count, out);
    });
    const auto d2 = RandomDoubles(count, 100 + offset);
    std::vector<double> d2_abs(count);
    for (size_t i = 0; i < count; ++i) d2_abs[i] = std::fabs(d2[i]);
    ExpectTiersAgree(count, [&](double* out) {
      SimdOps().rbf_from_d2_row(gamma, d2_abs.data(), count, out);
    });
  }
}

TEST(SimdKernelsTest, RbfRowAndAxpyMatchScalar) {
  for (size_t n : {size_t{1}, size_t{4}, size_t{15}, size_t{16}, size_t{17},
                   size_t{33}, size_t{100}, size_t{1024}}) {
    auto d2 = RandomDoubles(n, n);
    for (auto& v : d2) v = std::fabs(v);
    ExpectTiersAgree(n, [&](double* out) {
      SimdOps().rbf_from_d2_row(0.9, d2.data(), n, out);
    });

    const auto x = RandomDoubles(n, 2 * n + 1);
    const auto q = RandomDoubles(n, 2 * n + 2);
    const auto y0 = RandomDoubles(n, 2 * n + 3);
    ExpectTiersAgree(n, [&](double* out) {
      std::copy(y0.begin(), y0.end(), out);
      SimdOps().axpy(0.37, x.data(), n, out);
    });
    ExpectTiersAgree(n, [&](double* out) {
      std::copy(y0.begin(), y0.end(), out);
      SimdOps().axpy_diff(-1.21, x.data(), q.data(), n, out);
    });
  }
}

TEST(SimdKernelsTest, DetExpTracksStdExpTightly) {
  Rng rng(5);
  EXPECT_EQ(DetExp(0.0), 1.0);
  EXPECT_EQ(DetExp(-0.0), 1.0);
  // Arguments past the clamp saturate at the clamp value instead of
  // underflowing through subnormals.
  EXPECT_EQ(DetExp(-800.0), DetExp(-708.0));
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.Uniform(-700.0, 50.0);
    const double want = std::exp(x);
    const double got = DetExp(x);
    if (want == 0.0) {
      EXPECT_EQ(got, 0.0) << x;
    } else {
      EXPECT_NEAR(got / want, 1.0, 5e-15) << x;
    }
  }
}

TEST(SimdKernelsTest, EnvOverrideSelectsTier) {
  TierGuard guard;
  setenv("MIVID_SIMD", "scalar", 1);
  SetSimdTier(-1);  // re-resolve from the environment
  EXPECT_EQ(ActiveSimdTier(), SimdTier::kScalar);

  if (Avx2Available()) {
    setenv("MIVID_SIMD", "avx2", 1);
    SetSimdTier(-1);
    EXPECT_EQ(ActiveSimdTier(), SimdTier::kAvx2);
  }

  // Unknown value: warn and fall back to native resolution.
  setenv("MIVID_SIMD", "sse42", 1);
  SetSimdTier(-1);
  EXPECT_EQ(ActiveSimdTier(),
            Avx2Available() ? SimdTier::kAvx2 : SimdTier::kScalar);
}

/// Box-Muller inputs: the random pairs a Gaussian stream draws, then
/// the edge sets where the log's and the angle's reductions switch
/// branches or lose relative accuracy.
void BoxMullerInputs(size_t random_pairs, std::vector<double>* u1,
                     std::vector<double>* u2) {
  u1->resize(random_pairs);
  u2->resize(random_pairs);
  Rng(17).BoxMullerUniforms(random_pairs, u1->data(), u2->data());
  auto add = [&](double a, double b) {
    u1->push_back(a);
    u2->push_back(b);
  };
  Rng rng(23);
  // u1 -> 1, where log u1 -> 0 and sqrt amplifies its absolute error.
  for (int k = 1; k <= 2000; ++k) add(1.0 - k * 0x1p-53, rng.Uniform());
  add(1.0, 0.3);
  // The smallest u1 a stream can draw, and just above it.
  add(1e-300, 0.7);
  add(std::nextafter(1e-300, 1.0), 0.2);
  // Powers of two and sqrt(1/2) * 2^p, a few ulp either side: the
  // exponent split and the mantissa fold switch there.
  for (int p = -996; p <= -1; ++p) {
    for (int d = -3; d <= 3; ++d) {
      const double pow2 = std::ldexp(1.0 + d * 0x1p-52, p);
      const double root = std::ldexp(std::sqrt(0.5), p) +
                          d * std::ldexp(0x1p-53, p);
      if (pow2 < 1.0 && pow2 >= 1e-300) add(pow2, rng.Uniform());
      if (root < 1.0 && root >= 1e-300) add(root, rng.Uniform());
    }
  }
  // u2 at and around the quadrant boundaries (multiples of 1/8).
  for (int q = 0; q <= 8; ++q) {
    for (int d = -4; d <= 4; ++d) {
      const double t = q / 8.0 + d * 0x1p-53;
      if (t >= 0.0 && t < 1.0) {
        add(rng.Uniform(1e-3, 1.0), t);
        add(1.0 - 0x1p-53, t);
      }
    }
  }
}

TEST(BoxMullerRowTest, TracksLibmWithinTheBoundOnEveryTier) {
  std::vector<double> u1, u2;
  BoxMullerInputs(1000000, &u1, &u2);
  const size_t n = u1.size();
  std::vector<double> want_cos(n), want_sin(n);
  for (size_t j = 0; j < n; ++j) {
    Rng::BoxMullerPair(u1[j], u2[j], &want_cos[j], &want_sin[j]);
  }
  TierGuard guard;
  for (const SimdTier tier : {SimdTier::kScalar, SimdTier::kAvx2}) {
    if (tier == SimdTier::kAvx2 && !Avx2Available()) continue;
    SetSimdTier(static_cast<int>(tier));
    std::vector<double> g_cos(n), g_sin(n);
    SimdOps().box_muller_row(u1.data(), u2.data(), n, g_cos.data(),
                             g_sin.data());
    double worst = 0.0;
    size_t worst_at = 0;
    for (size_t j = 0; j < n; ++j) {
      const double err = std::max(std::fabs(g_cos[j] - want_cos[j]),
                                  std::fabs(g_sin[j] - want_sin[j]));
      if (!(err <= worst)) {  // also catches NaN
        worst = err;
        worst_at = j;
      }
    }
    EXPECT_LE(worst, kBoxMullerMaxAbsError)
        << SimdTierName(tier) << " u1=" << u1[worst_at]
        << " u2=" << u2[worst_at];
  }
}

TEST(BoxMullerRowTest, TiersAgreeBitForBitAtEveryLengthAndOffset) {
  std::vector<double> u1, u2;
  BoxMullerInputs(200, &u1, &u2);
  for (size_t offset : {size_t{0}, size_t{1}, size_t{3}}) {
    for (size_t n = 0; n <= 37; ++n) {
      ExpectTiersAgree(2 * n, [&](double* out) {
        SimdOps().box_muller_row(u1.data() + offset, u2.data() + offset, n,
                                 out, out + n);
      });
    }
  }
  // The whole edge set in one row.
  const size_t n = u1.size();
  ExpectTiersAgree(2 * n, [&](double* out) {
    SimdOps().box_muller_row(u1.data(), u2.data(), n, out, out + n);
  });
}

/// The states of four generators, one lane each.
std::vector<RngState> LaneStates(const std::vector<Rng>& lanes) {
  std::vector<RngState> states;
  for (const Rng& lane : lanes) states.push_back(lane.state());
  return states;
}

TEST(NoiseUniformLanesTest, MatchesBoxMullerUniformsOnEveryTier) {
  // Pairs per lane: every short count (the AVX2 tier's 4-pair steps and
  // scalar tail), a count not divisible by 4, and a whole 320x240
  // frame's 38,400 pairs.
  std::vector<size_t> counts;
  for (size_t n = 0; n <= 37; ++n) counts.push_back(n);
  counts.push_back(9601);
  counts.push_back(38400);
  TierGuard guard;
  for (const size_t count : counts) {
    const size_t stride = count + 3;  // rows need not be contiguous
    const std::vector<Rng> lanes = {Rng(101), Rng(202), Rng(303), Rng(404)};
    std::vector<Rng> ends = lanes;
    std::vector<double> want_u1(4 * stride, -1.0), want_u2(4 * stride, -1.0);
    for (size_t j = 0; j < 4; ++j) {
      ends[j].BoxMullerUniforms(count, want_u1.data() + j * stride,
                                want_u2.data() + j * stride);
    }
    for (const SimdTier tier : {SimdTier::kScalar, SimdTier::kAvx2}) {
      if (tier == SimdTier::kAvx2 && !Avx2Available()) continue;
      SetSimdTier(static_cast<int>(tier));
      std::vector<RngState> state = LaneStates(lanes);
      std::vector<double> u1(4 * stride, -1.0), u2(4 * stride, -1.0);
      EXPECT_FALSE(SimdOps().noise_uniform_lanes(state.data(), count, stride,
                                                 u1.data(), u2.data()));
      EXPECT_EQ(u1, want_u1) << SimdTierName(tier) << " count " << count;
      EXPECT_EQ(u2, want_u2) << SimdTierName(tier) << " count " << count;
      EXPECT_EQ(state, LaneStates(ends))
          << SimdTierName(tier) << " count " << count;
    }
  }
}

TEST(NoiseUniformLanesTest, FlagsAZeroU1InEveryLane) {
  // xoshiro256** outputs 0 from any state with s[1] == 0, so that lane's
  // first u1 is 0: a draw Rng::BoxMullerUniforms would reject. Counts 1
  // and 6 reach the AVX2 tier's scalar tail and its 4-pair steps.
  TierGuard guard;
  for (const SimdTier tier : {SimdTier::kScalar, SimdTier::kAvx2}) {
    if (tier == SimdTier::kAvx2 && !Avx2Available()) continue;
    SetSimdTier(static_cast<int>(tier));
    for (const size_t count : {size_t{1}, size_t{6}}) {
      for (size_t zero_lane = 0; zero_lane < 4; ++zero_lane) {
        std::vector<Rng> lanes = {Rng(1), Rng(2), Rng(3), Rng(4)};
        RngState rejecting = lanes[zero_lane].state();
        rejecting[1] = 0;
        lanes[zero_lane].set_state(rejecting);
        std::vector<RngState> state = LaneStates(lanes);
        std::vector<double> u1(4 * count), u2(4 * count);
        EXPECT_TRUE(SimdOps().noise_uniform_lanes(state.data(), count, count,
                                                  u1.data(), u2.data()))
            << SimdTierName(tier) << " count " << count << " lane "
            << zero_lane;
        EXPECT_EQ(u1[zero_lane * count], 0.0);
      }
    }
  }
}

TEST(PackedMatrixTest, LayoutNormsAndRoundTrip) {
  const size_t n = 11, dim = 4;
  const auto points = RandomPoints(n, dim, 77);
  const auto packed = PackRandom(points);
  EXPECT_EQ(packed.n(), n);
  EXPECT_EQ(packed.dim(), dim);
  EXPECT_EQ(packed.stride(), PackedFeatureMatrix::StrideFor(n));
  for (size_t j = 0; j < n; ++j) {
    for (size_t k = 0; k < dim; ++k) {
      EXPECT_EQ(packed.At(k, j), points[j][k]);
    }
    // Norms carry the exact Dot(p, p) accumulation order.
    EXPECT_EQ(packed.squared_norms()[j], Dot(points[j], points[j]));
    Vec back;
    packed.CopyPoint(j, &back);
    EXPECT_EQ(back, points[j]);
  }
  // Padding lanes are zero so SIMD tails can read them safely.
  for (size_t k = 0; k < dim; ++k) {
    for (size_t j = n; j < packed.stride(); ++j) {
      EXPECT_EQ(packed.At(k, j), 0.0);
    }
  }
}

TEST(PackedCorpusTest, BagOffsetsAndMismatchedDimRejected) {
  MilDataset ds;
  // An empty bag fixes no dimension.
  MilBag empty;
  empty.id = 9;
  ASSERT_TRUE(ds.AddBag(std::move(empty)).ok());
  EXPECT_EQ(ds.dim(), 0u);
  for (int b = 0; b < 3; ++b) {
    MilBag bag;
    bag.id = b;
    for (int i = 0; i <= b; ++i) {
      MilInstance inst;
      inst.bag_id = b;
      inst.instance_id = i;
      inst.features = {0.1 * b, 0.2 * i, 0.3};
      inst.raw_features = inst.features;
      bag.instances.push_back(std::move(inst));
    }
    ASSERT_TRUE(ds.AddBag(std::move(bag)).ok());
  }
  EXPECT_EQ(ds.dim(), 3u);
  const auto packed = ds.EnsurePacked();
  EXPECT_EQ(packed->features.n(), 6u);
  EXPECT_EQ(packed->features.dim(), 3u);
  EXPECT_EQ(packed->bag_begin, (std::vector<size_t>{0, 0, 1, 3, 6}));
  // The cache is shared until the corpus changes.
  EXPECT_EQ(ds.EnsurePacked().get(), packed.get());

  // A bag of another dimension (even behind a matching instance) is
  // rejected whole; the dataset and its packing stay as they were.
  MilBag odd;
  odd.id = 3;
  MilInstance same;
  same.features = {1.0, 2.0, 3.0};
  odd.instances.push_back(same);
  MilInstance other;
  other.features = {1.0, 2.0};
  odd.instances.push_back(other);
  EXPECT_TRUE(ds.AddBag(std::move(odd)).IsInvalidArgument());
  EXPECT_EQ(ds.size(), 4u);
  EXPECT_EQ(ds.TotalInstances(), 6u);
  EXPECT_EQ(ds.dim(), 3u);
  EXPECT_EQ(ds.EnsurePacked().get(), packed.get());
}

/// Synthetic labeled corpus with planted "incident" bags (mirrors the
/// retrieval tests).
MilDataset MakeCorpus(int n_bags, const std::set<int>& hot_bags,
                      uint64_t seed) {
  Rng rng(seed);
  MilDataset ds;
  for (int b = 0; b < n_bags; ++b) {
    MilBag bag;
    bag.id = b;
    const int n_inst = 1 + static_cast<int>(rng.UniformInt(0, 2));
    for (int i = 0; i < n_inst; ++i) {
      MilInstance inst;
      inst.bag_id = b;
      inst.instance_id = i;
      inst.features.assign(9, 0.0);
      for (auto& v : inst.features) v = std::fabs(rng.Gaussian(0.05, 0.03));
      if (hot_bags.count(b) && i == 0) {
        inst.features[3] = 0.8 + rng.Uniform(0, 0.2);
        inst.features[4] = 0.7 + rng.Uniform(0, 0.2);
        inst.features[5] = 0.6 + rng.Uniform(0, 0.2);
      }
      inst.raw_features = inst.features;
      bag.instances.push_back(std::move(inst));
    }
    ds.AddBag(std::move(bag));
  }
  return ds;
}

TEST(RankTopKTest, MatchesTruncatedFullRanking) {
  MilDataset ds = MakeCorpus(60, {3, 17, 29, 41}, 9001);
  MilRfEngine engine(&ds, MilRfOptions{});
  ASSERT_TRUE(ds.SetLabel(3, BagLabel::kRelevant).ok());
  ASSERT_TRUE(ds.SetLabel(17, BagLabel::kRelevant).ok());
  ASSERT_TRUE(ds.SetLabel(5, BagLabel::kIrrelevant).ok());
  ASSERT_TRUE(engine.Learn().ok());

  const std::vector<ScoredBag> full = engine.Rank();
  ASSERT_EQ(full.size(), 60u);
  for (size_t k : {size_t{1}, size_t{5}, size_t{20}, size_t{59}, size_t{60},
                   size_t{100}}) {
    const std::vector<ScoredBag> topk = engine.RankTopK(k);
    ASSERT_EQ(topk.size(), std::min(k, full.size())) << "k=" << k;
    for (size_t i = 0; i < topk.size(); ++i) {
      EXPECT_EQ(topk[i].bag_id, full[i].bag_id) << "k=" << k << " i=" << i;
      // Same bits, not just close: pruned bags must never perturb the
      // surviving scores.
      EXPECT_EQ(topk[i].score, full[i].score) << "k=" << k << " i=" << i;
    }
  }
}

TEST(RankTopKTest, RankingsAreBitIdenticalAcrossTiers) {
  if (!Avx2Available()) GTEST_SKIP() << "single-tier host";
  TierGuard guard;

  // The full pipeline (train + rank) under each tier, from scratch.
  auto run = [](int tier) {
    SetSimdTier(tier);
    MilDataset ds = MakeCorpus(50, {2, 11, 23}, 424242);
    MilRfEngine engine(&ds, MilRfOptions{});
    EXPECT_TRUE(ds.SetLabel(2, BagLabel::kRelevant).ok());
    EXPECT_TRUE(ds.SetLabel(23, BagLabel::kRelevant).ok());
    EXPECT_TRUE(engine.Learn().ok());
    return engine.Rank();
  };
  const auto scalar = run(static_cast<int>(SimdTier::kScalar));
  const auto avx2 = run(static_cast<int>(SimdTier::kAvx2));
  ASSERT_EQ(scalar.size(), avx2.size());
  for (size_t i = 0; i < scalar.size(); ++i) {
    EXPECT_EQ(scalar[i].bag_id, avx2[i].bag_id) << i;
    EXPECT_EQ(scalar[i].score, avx2[i].score) << i;
  }
}

TEST(PackedCorpusIoTest, SnapshotRoundTripsAndIsAdoptedZeroCopy) {
  const std::string dir =
      (fs::temp_directory_path() / "mivid_packed_corpus_io").string();
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string path = dir + "/cam-1.mivpack";

  CameraCorpus corpus;
  corpus.camera_id = "cam-1";
  corpus.dataset = MakeCorpus(12, {4, 7}, 31337);
  for (int b = 0; b < 12; ++b) {
    corpus.bag_refs[b] = CorpusBagRef{1, b, 10 * b, 10 * b + 15};
    corpus.truth[b] =
        (b == 4 || b == 7) ? BagLabel::kRelevant : BagLabel::kIrrelevant;
  }
  QueryOptions query;
  ASSERT_TRUE(WritePackedCorpusFile(corpus, path, query).ok());

  auto restored = ReadPackedCorpusFile(path, query);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  const CameraCorpus& got = *restored.value();
  EXPECT_EQ(got.camera_id, "cam-1");
  ASSERT_EQ(got.dataset.size(), corpus.dataset.size());
  for (size_t b = 0; b < corpus.dataset.size(); ++b) {
    const MilBag& want = corpus.dataset.bag(b);
    const MilBag& have = got.dataset.bag(b);
    EXPECT_EQ(have.id, want.id);
    ASSERT_EQ(have.instances.size(), want.instances.size());
    for (size_t i = 0; i < want.instances.size(); ++i) {
      EXPECT_EQ(have.instances[i].instance_id, want.instances[i].instance_id);
      EXPECT_EQ(have.instances[i].features, want.instances[i].features);
      EXPECT_EQ(have.instances[i].raw_features,
                want.instances[i].raw_features);
    }
  }
  EXPECT_EQ(got.bag_refs.size(), corpus.bag_refs.size());
  EXPECT_EQ(got.bag_refs.at(3).begin_frame, 30);
  EXPECT_EQ(got.truth.at(4), BagLabel::kRelevant);
  EXPECT_EQ(got.truth.at(5), BagLabel::kIrrelevant);

  // The restored dataset already carries the mapped packing, and it is
  // bit-identical to packing the restored bags from scratch.
  const auto adopted = got.dataset.EnsurePacked();
  const auto rebuilt = BuildPackedCorpus(got.dataset.bags());
  ASSERT_EQ(adopted->features.dim(), rebuilt->features.dim());
  ASSERT_EQ(adopted->features.n(), rebuilt->features.n());
  EXPECT_EQ(adopted->bag_begin, rebuilt->bag_begin);
  for (size_t k = 0; k < adopted->features.dim(); ++k) {
    for (size_t j = 0; j < adopted->features.n(); ++j) {
      EXPECT_EQ(adopted->features.At(k, j), rebuilt->features.At(k, j));
    }
  }

  // Wrong query fingerprint: rejected, never half-loaded.
  QueryOptions other = query;
  other.features.include_velocity = true;
  EXPECT_FALSE(ReadPackedCorpusFile(path, other).ok());

  // Flipped byte in the feature block: CRC catches it.
  {
    std::string bytes;
    {
      auto r = ReadFileToString(path);
      ASSERT_TRUE(r.ok());
      bytes = std::move(r).value();
    }
    bytes[4096 + 8] ^= 0x40;
    ASSERT_TRUE(WriteFileAtomic(path, bytes).ok());
    EXPECT_FALSE(ReadPackedCorpusFile(path, query).ok());
  }
  fs::remove_all(dir);
}

/// MakeCorpus behind an empty bag (added first) and with at least one
/// single-instance bag: the packed offsets' edge cases.
MilDataset MakeRankingCorpus() {
  MilDataset ds;
  MilBag empty;
  empty.id = 1000;
  EXPECT_TRUE(ds.AddBag(std::move(empty)).ok());
  const MilDataset planted = MakeCorpus(40, {3, 11, 29}, 2718);
  bool single = false;
  for (const MilBag& bag : planted.bags()) {
    single = single || bag.instances.size() == 1;
    EXPECT_TRUE(ds.AddBag(bag).ok());
  }
  EXPECT_TRUE(single);
  EXPECT_TRUE(ds.SetLabel(3, BagLabel::kRelevant).ok());
  EXPECT_TRUE(ds.SetLabel(11, BagLabel::kRelevant).ok());
  EXPECT_TRUE(ds.SetLabel(5, BagLabel::kIrrelevant).ok());
  return ds;
}

/// Checks `ranking` against per-bag reference scores bit for bit, and its
/// order against (score desc, bag id asc).
void ExpectRankingMatches(const std::vector<ScoredBag>& ranking,
                          const MilDataset& ds,
                          const std::function<double(const MilBag&)>& ref) {
  ASSERT_EQ(ranking.size(), ds.size());
  for (const ScoredBag& sb : ranking) {
    const MilBag* bag = ds.FindBag(sb.bag_id);
    ASSERT_NE(bag, nullptr);
    EXPECT_EQ(sb.score, ref(*bag)) << "bag " << sb.bag_id;
  }
  for (size_t i = 1; i < ranking.size(); ++i) {
    EXPECT_TRUE(ranking[i - 1].score > ranking[i].score ||
                (ranking[i - 1].score == ranking[i].score &&
                 ranking[i - 1].bag_id < ranking[i].bag_id))
        << i;
  }
}

/// Scalar, then AVX2 when the host has it.
std::vector<int> AvailableTiers() {
  std::vector<int> tiers{static_cast<int>(SimdTier::kScalar)};
  if (Avx2Available()) tiers.push_back(static_cast<int>(SimdTier::kAvx2));
  return tiers;
}

TEST(PackedRankingTest, MilRfRankEqualsPerVecDecisionValues) {
  TierGuard guard;
  for (const int tier : AvailableTiers()) {
    SCOPED_TRACE(tier);
    SetSimdTier(tier);
    MilDataset ds = MakeRankingCorpus();
    MilRfEngine engine(&ds, MilRfOptions{});
    ASSERT_TRUE(engine.Learn().ok());
    const OneClassSvmModel& model = *engine.model();
    ExpectRankingMatches(engine.Rank(), ds, [&](const MilBag& bag) {
      double best = -1e18;
      for (const MilInstance& inst : bag.instances) {
        best = std::max(best, model.DecisionValue(inst.features));
      }
      return best;
    });
  }
}

TEST(PackedRankingTest, DiverseDensityRankEqualsPerVecLikelihoods) {
  TierGuard guard;
  for (const int tier : AvailableTiers()) {
    SCOPED_TRACE(tier);
    SetSimdTier(tier);
    MilDataset ds = MakeRankingCorpus();
    DiverseDensityOptions options;
    options.max_starts = 4;
    DiverseDensityEngine engine(&ds, options);
    ASSERT_TRUE(engine.Learn().ok());
    const Vec& concept_point = engine.concept_point();
    const double gamma = 1.0 / (options.scale * options.scale);
    ExpectRankingMatches(engine.Rank(), ds, [&](const MilBag& bag) {
      double best = 0.0;
      for (const MilInstance& inst : bag.instances) {
        best = std::max(
            best,
            DetExp(-(gamma * SquaredDistance(inst.features, concept_point))));
      }
      return best;
    });
  }
}

TEST(PackedCorpusIoTest, CraftedHeaderIsCorruption) {
  const std::string dir =
      (fs::temp_directory_path() / "mivid_packed_corpus_crafted").string();
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string path = dir + "/cam-1.mivpack";

  // A valid one-instance snapshot (dim = 3 checkpoints x 3 features).
  CameraCorpus corpus;
  corpus.camera_id = "cam-1";
  MilBag bag;
  bag.id = 0;
  MilInstance inst;
  inst.features.assign(9, 0.25);
  inst.raw_features = inst.features;
  bag.instances.push_back(inst);
  ASSERT_TRUE(corpus.dataset.AddBag(std::move(bag)).ok());
  QueryOptions query;
  ASSERT_TRUE(WritePackedCorpusFile(corpus, path, query).ok());
  std::string original;
  {
    auto r = ReadFileToString(path);
    ASSERT_TRUE(r.ok());
    original = std::move(r).value();
  }
  ASSERT_TRUE(ReadPackedCorpusFile(path, query).ok());

  // Rewrites header fields (offset, value), keeping the header CRC valid,
  // so only the layout checks stand between the values and the loader.
  using Fields = std::vector<std::pair<size_t, uint64_t>>;
  auto with_fields = [&](const Fields& fields) {
    std::string bytes = original;
    for (const auto& [offset, value] : fields) {
      std::string field;
      PutFixed64(&field, value);
      bytes.replace(offset, 8, field);
    }
    std::string crc;
    PutFixed32(&crc, Crc32c(std::string_view(bytes.data(), 88)));
    bytes.replace(88, 4, crc);
    return bytes;
  };
  constexpr size_t kN = 24, kDim = 32, kStride = 40, kFeatureBytes = 56;
  // dim = 9 + 2^58: dim * stride * 8 wraps to the stored 576 bytes.
  const uint64_t wrapping = 9 + (uint64_t{1} << 58);
  ASSERT_EQ(wrapping * 8 * sizeof(double), 576u);
  const uint64_t max = ~uint64_t{0};
  for (const Fields& fields :
       {Fields{{kDim, wrapping}}, Fields{{kDim, 12}}, Fields{{kDim, 0}},
        // n = 2^64 - 1: its padded stride wraps to 0, and so do the bytes.
        Fields{{kN, max}, {kStride, 0}, {kFeatureBytes, 0}}}) {
    SCOPED_TRACE(fields.front().second);
    ASSERT_TRUE(WriteFileAtomic(path, with_fields(fields)).ok());
    auto loaded = ReadPackedCorpusFile(path, query);
    ASSERT_FALSE(loaded.ok());
    EXPECT_TRUE(loaded.status().IsCorruption()) << loaded.status().ToString();
  }
  fs::remove_all(dir);
}

/// The reference every tier's quantize_noisy_pairs must reproduce: the
/// scalar quantize loop the renderer ran before the kernel table had one.
void ReferenceQuantizeNoisyPairs(const uint8_t* pixels, const double* g_cos,
                                 const double* g_sin, size_t count,
                                 double illumination, double stddev,
                                 double far, uint8_t* bytes,
                                 std::vector<uint32_t>* flagged) {
  auto clamped = [&](uint8_t p, double g) {
    double v = static_cast<double>(p) + illumination;
    v += 0.0 + stddev * g;
    return std::min(std::max(v, 0.5), 255.5);
  };
  for (size_t i = 0; i < count; ++i) {
    const double w0 = clamped(pixels[2 * i], g_cos[i]);
    const double w1 = clamped(pixels[2 * i + 1], g_sin[i]);
    const int b0 = static_cast<int>(w0);
    const int b1 = static_cast<int>(w1);
    bytes[2 * i] = static_cast<uint8_t>(b0);
    bytes[2 * i + 1] = static_cast<uint8_t>(b1);
    const bool near = (std::fabs(w0 - b0 - 0.5) > far) |
                      (std::fabs(w1 - b1 - 0.5) > far);
    if (near) flagged->push_back(static_cast<uint32_t>(i));
  }
}

TEST(QuantizeNoisyPairsKernelTest, TiersMatchTheScalarLoopAtEveryLength) {
  // Noise values aimed at byte boundaries (just below, on and above an
  // integer, and at its midpoint), at both clamps, and at random.
  constexpr size_t kMax = 40;
  Rng rng(17);
  for (const double illumination : {0.0, -3.25, 7.5}) {
    for (const double stddev : {0.5, 6.0}) {
      std::vector<uint8_t> pixels(2 * kMax);
      std::vector<double> g(2 * kMax);
      for (size_t k = 0; k < pixels.size(); ++k) {
        const int pick = rng.UniformInt(0, 5);
        pixels[k] = pick == 0   ? 0
                    : pick == 1 ? 255
                                : static_cast<uint8_t>(rng.UniformInt(0, 255));
        const double base = pixels[k] + illumination;
        const double target =
            std::round(base + rng.Uniform(-20.0, 20.0)) +
            std::vector<double>{0.0, 0x1p-40, -0x1p-40, 0.5, 1e-9}[k % 5];
        switch (rng.UniformInt(0, 3)) {
          case 0:
            g[k] = (target - base) / stddev;
            break;
          case 1:
            g[k] = (rng.Bernoulli(0.5) ? 300.0 : -300.0) / stddev;
            break;
          default:
            g[k] = rng.Gaussian(0.0, 1.0);
        }
      }
      std::vector<double> g_cos(kMax), g_sin(kMax);
      for (size_t i = 0; i < kMax; ++i) {
        g_cos[i] = g[2 * i];
        g_sin[i] = g[2 * i + 1];
      }
      for (const double far : {0.5 - 1e-9, 0.2}) {
        for (const size_t offset : {size_t{0}, size_t{1}, size_t{3}}) {
          for (size_t n = 0; n + offset <= kMax && n <= 37; ++n) {
            std::vector<uint8_t> want_bytes(2 * n);
            std::vector<uint32_t> want_flagged;
            ReferenceQuantizeNoisyPairs(
                pixels.data() + 2 * offset, g_cos.data() + offset,
                g_sin.data() + offset, n, illumination, stddev, far,
                want_bytes.data(), &want_flagged);
            TierGuard guard;
            for (const int tier : AvailableTiers()) {
              SetSimdTier(tier);
              std::vector<uint8_t> bytes(2 * n, 0xAA);
              std::vector<uint32_t> flagged(n);
              flagged.resize(SimdOps().quantize_noisy_pairs(
                  pixels.data() + 2 * offset, g_cos.data() + offset,
                  g_sin.data() + offset, n, illumination, stddev, far,
                  bytes.data(), flagged.data()));
              SCOPED_TRACE(testing::Message()
                           << "tier " << tier << " n " << n << " offset "
                           << offset << " far " << far << " illum "
                           << illumination << " sd " << stddev);
              EXPECT_EQ(bytes, want_bytes);
              EXPECT_EQ(flagged, want_flagged);
            }
          }
        }
      }
    }
  }
}

/// The reference every tier's selective_mean_stripe must reproduce: the
/// post-warmup scalar loops BackgroundModel::UpdateBatch ran before the
/// kernel table had one.
uint32_t ReferenceSelectiveMeanStripe(const uint8_t* px, size_t count, double a,
                                      double threshold, bool update,
                                      double* mean, uint8_t* mask) {
  if (update) {
    for (size_t i = 0; i < count; ++i) {
      if (std::fabs(px[i] - mean[i]) < threshold) {
        mean[i] = (1.0 - a) * mean[i] + a * px[i];
      }
    }
  }
  if (mask == nullptr) return 0;
  uint32_t sum = 0;
  for (size_t i = 0; i < count; ++i) {
    mask[i] = std::fabs(px[i] - mean[i]) >= threshold;
    sum += static_cast<uint8_t>(std::clamp(mean[i], 0.0, 255.0));
  }
  return sum;
}

std::vector<uint64_t> Bits(const std::vector<double>& v) {
  std::vector<uint64_t> out;
  for (const double d : v) out.push_back(std::bit_cast<uint64_t>(d));
  return out;
}

TEST(SelectiveMeanStripeTest, TiersMatchTheScalarLoopsAtEveryLength) {
  // Means exactly one threshold (and one ulp around it) from the pixel,
  // equal to it, outside [0, 255], signed zeros, and random; pixels at 0,
  // 255 and random; learning rates 0, 1 and the default.
  constexpr size_t kMax = 40;
  Rng rng(23);
  for (const double threshold : {18.0, 0.75}) {
    std::vector<uint8_t> px(kMax);
    std::vector<double> mean(kMax);
    for (size_t i = 0; i < kMax; ++i) {
      const int pick = rng.UniformInt(0, 3);
      px[i] = pick == 0   ? 0
              : pick == 1 ? 255
                          : static_cast<uint8_t>(rng.UniformInt(0, 255));
      const double p = px[i];
      const double sign = rng.Bernoulli(0.5) ? 1.0 : -1.0;
      switch (i % 8) {
        case 0:
          mean[i] = p + sign * threshold;
          break;
        case 1:
          mean[i] = std::nextafter(p + sign * threshold, p);
          break;
        case 2:
          mean[i] = std::nextafter(p + sign * threshold, sign * 1e9);
          break;
        case 3:
          mean[i] = p;
          break;
        case 4:
          mean[i] = std::vector<double>{-3.5, 300.0, 255.999, -0.0, 0.0,
                                        255.0, -1e-300}[rng.UniformInt(0, 6)];
          break;
        default:
          mean[i] = p + rng.Uniform(-2.0, 2.0) * threshold;
      }
    }
    for (const double a : {0.0, 1.0, 0.02}) {
      for (const bool update : {false, true}) {
        for (const bool with_mask : {false, true}) {
          for (const size_t offset : {size_t{0}, size_t{1}, size_t{3}}) {
            for (size_t n = 0; n + offset <= kMax && n <= 37; ++n) {
              std::vector<double> want_mean(mean.begin() + offset,
                                            mean.begin() + offset + n);
              std::vector<uint8_t> want_mask(n, 0xAA);
              const uint32_t want = ReferenceSelectiveMeanStripe(
                  px.data() + offset, n, a, threshold, update,
                  want_mean.data(), with_mask ? want_mask.data() : nullptr);
              TierGuard guard;
              for (const int tier : AvailableTiers()) {
                SetSimdTier(tier);
                std::vector<double> got_mean(mean.begin() + offset,
                                             mean.begin() + offset + n);
                std::vector<uint8_t> got_mask(n, 0xAA);
                const uint32_t got = SimdOps().selective_mean_stripe(
                    px.data() + offset, n, a, threshold, update,
                    got_mean.data(), with_mask ? got_mask.data() : nullptr);
                SCOPED_TRACE(testing::Message()
                             << "tier " << tier << " n " << n << " offset "
                             << offset << " a " << a << " thr " << threshold
                             << " update " << update << " mask " << with_mask);
                EXPECT_EQ(got, want);
                EXPECT_EQ(Bits(got_mean), Bits(want_mean));
                EXPECT_EQ(got_mask, want_mask);
              }
            }
          }
        }
      }
    }
  }
}

TEST(SelectiveMeanStripeTest, FullStripeOfNoisyFramesMatchesAcrossTiers) {
  // One 4096-pixel stripe through 40 noisy frames, as UpdateBatch drives
  // it: every tier's model, masks and sums stay bit-identical.
  constexpr size_t kPixels = 4096;
  Rng rng(29);
  std::vector<std::vector<uint8_t>> frames(40, std::vector<uint8_t>(kPixels));
  for (auto& frame : frames) {
    for (size_t i = 0; i < kPixels; ++i) {
      const double base = (i / 64) % 3 == 0 ? 200.0 : 60.0;
      frame[i] = static_cast<uint8_t>(
          std::clamp(base + rng.Gaussian(0.0, 12.0), 0.0, 255.0));
    }
  }
  std::vector<double> start(kPixels);
  for (auto& m : start) m = rng.Uniform(0.0, 255.0);
  std::vector<double> want_mean = start;
  std::vector<std::vector<uint8_t>> want_masks;
  std::vector<uint32_t> want_sums;
  for (const auto& frame : frames) {
    want_masks.emplace_back(kPixels);
    want_sums.push_back(ReferenceSelectiveMeanStripe(
        frame.data(), kPixels, 0.02, 18.0, true, want_mean.data(),
        want_masks.back().data()));
  }
  TierGuard guard;
  for (const int tier : AvailableTiers()) {
    SetSimdTier(tier);
    std::vector<double> mean = start;
    for (size_t f = 0; f < frames.size(); ++f) {
      std::vector<uint8_t> mask(kPixels);
      EXPECT_EQ(SimdOps().selective_mean_stripe(frames[f].data(), kPixels,
                                                0.02, 18.0, true, mean.data(),
                                                mask.data()),
                want_sums[f])
          << "tier " << tier << " frame " << f;
      EXPECT_EQ(mask, want_masks[f]) << "tier " << tier << " frame " << f;
    }
    EXPECT_EQ(Bits(mean), Bits(want_mean)) << "tier " << tier;
  }
}

}  // namespace
}  // namespace mivid
