// Tests for src/sketch: PCSA estimator accuracy (property-swept across
// cardinalities and seeds), OR-merge/union semantics, the exact-counting
// oracle, and the signature cache.

#include <cmath>
#include <cstring>

#include <gtest/gtest.h>

#include "common/random.h"
#include "schema/universe.h"
#include "sketch/exact_counter.h"
#include "sketch/pcsa.h"
#include "sketch/signature_cache.h"
#include "sketch/simd.h"

namespace mube {
namespace {

// ------------------------------------------------------------- PcsaConfig --

TEST(PcsaConfigTest, ValidationRules) {
  PcsaConfig ok;
  EXPECT_TRUE(ok.Validate().ok());

  PcsaConfig not_pow2;
  not_pow2.num_maps = 48;
  EXPECT_FALSE(not_pow2.Validate().ok());

  PcsaConfig too_few;
  too_few.num_maps = 1;
  EXPECT_FALSE(too_few.Validate().ok());

  PcsaConfig bad_bits;
  bad_bits.map_bits = 4;
  EXPECT_FALSE(bad_bits.Validate().ok());

  PcsaConfig big_bits;
  big_bits.map_bits = 64;
  EXPECT_TRUE(big_bits.Validate().ok());
}

// ------------------------------------------------------------- PcsaSketch --

TEST(PcsaSketchTest, EmptyEstimatesZeroish) {
  PcsaSketch sketch;
  EXPECT_TRUE(sketch.IsEmpty());
  EXPECT_LT(sketch.Estimate(), 1.0);
}

TEST(PcsaSketchTest, AddIsIdempotent) {
  PcsaSketch a, b;
  for (uint64_t i = 0; i < 1000; ++i) a.Add(i);
  for (int round = 0; round < 5; ++round) {
    for (uint64_t i = 0; i < 1000; ++i) b.Add(i);
  }
  EXPECT_EQ(a.bitmaps(), b.bitmaps());
  EXPECT_DOUBLE_EQ(a.Estimate(), b.Estimate());
}

TEST(PcsaSketchTest, SizeBytesMatchesConfig) {
  PcsaConfig config;
  config.num_maps = 256;
  PcsaSketch sketch(config);
  EXPECT_EQ(sketch.SizeBytes(), 256u * 8u);  // "a few bytes or kilobytes"
}

TEST(PcsaSketchTest, MergeRejectsMismatchedConfigs) {
  PcsaConfig a_cfg, b_cfg;
  b_cfg.num_maps = 128;
  PcsaSketch a(a_cfg), b(b_cfg);
  EXPECT_FALSE(a.MergeFrom(b).ok());

  PcsaConfig c_cfg;
  c_cfg.seed = 123;  // different hash family
  PcsaSketch c(c_cfg);
  EXPECT_FALSE(a.MergeFrom(c).ok());
}

TEST(PcsaSketchTest, MergeEqualsUnionSignature) {
  // The core PCSA property the paper relies on (§4): OR of signatures ==
  // signature of the union.
  PcsaSketch left, right, both;
  for (uint64_t i = 0; i < 5000; ++i) {
    left.Add(i);
    both.Add(i);
  }
  for (uint64_t i = 3000; i < 9000; ++i) {
    right.Add(i);
    both.Add(i);
  }
  ASSERT_TRUE(left.MergeFrom(right).ok());
  EXPECT_EQ(left.bitmaps(), both.bitmaps());
  EXPECT_DOUBLE_EQ(left.Estimate(), both.Estimate());
}

// Property sweep: relative error across cardinalities and seeds. With 256
// maps the standard error is ≈ 0.78/16 ≈ 4.9%; we allow 4 sigma.
class PcsaAccuracyTest
    : public ::testing::TestWithParam<std::tuple<uint64_t, uint64_t>> {};

TEST_P(PcsaAccuracyTest, EstimateWithinBounds) {
  const uint64_t n = std::get<0>(GetParam());
  const uint64_t seed = std::get<1>(GetParam());
  PcsaSketch sketch;
  // Distinct items derived from the seed so each instance sees a different
  // stream.
  for (uint64_t i = 0; i < n; ++i) sketch.Add(i * 2654435761ULL + seed);
  const double estimate = sketch.Estimate();
  const double rel_err = std::abs(estimate - static_cast<double>(n)) /
                         static_cast<double>(n);
  EXPECT_LT(rel_err, 0.20) << "n=" << n << " estimate=" << estimate;
}

INSTANTIATE_TEST_SUITE_P(
    CardinalitySweep, PcsaAccuracyTest,
    ::testing::Combine(::testing::Values(10'000, 50'000, 200'000, 1'000'000),
                       ::testing::Values(1, 2, 3)));

TEST(PcsaSketchTest, MonotoneInCardinality) {
  // More distinct items never lowers the estimate (bitmaps only gain bits).
  PcsaSketch sketch;
  double last = 0.0;
  for (uint64_t block = 0; block < 8; ++block) {
    for (uint64_t i = block * 20000; i < (block + 1) * 20000; ++i) {
      sketch.Add(i * 0x9e3779b97f4a7c15ULL);
    }
    const double estimate = sketch.Estimate();
    EXPECT_GE(estimate, last);
    last = estimate;
  }
}

TEST(PcsaSketchTest, MergeIsCommutativeAndAssociative) {
  // The OR-merge forms a commutative monoid over signatures — this is what
  // justifies caching per-source signatures and combining them in any
  // order (§4).
  auto make = [](uint64_t lo, uint64_t hi) {
    PcsaSketch s;
    for (uint64_t i = lo; i < hi; ++i) s.Add(i * 0x9e3779b97f4a7c15ULL);
    return s;
  };
  const PcsaSketch a = make(0, 1000);
  const PcsaSketch b = make(500, 2000);
  const PcsaSketch c = make(1500, 3000);

  PcsaSketch ab = a;
  ASSERT_TRUE(ab.MergeFrom(b).ok());
  PcsaSketch ba = b;
  ASSERT_TRUE(ba.MergeFrom(a).ok());
  EXPECT_EQ(ab.bitmaps(), ba.bitmaps());

  PcsaSketch ab_c = ab;
  ASSERT_TRUE(ab_c.MergeFrom(c).ok());
  PcsaSketch bc = b;
  ASSERT_TRUE(bc.MergeFrom(c).ok());
  PcsaSketch a_bc = a;
  ASSERT_TRUE(a_bc.MergeFrom(bc).ok());
  EXPECT_EQ(ab_c.bitmaps(), a_bc.bitmaps());
}

TEST(PcsaSketchTest, MergeWithSelfIsIdentity) {
  PcsaSketch a;
  for (uint64_t i = 0; i < 5000; ++i) a.Add(i * 31);
  PcsaSketch merged = a;
  ASSERT_TRUE(merged.MergeFrom(a).ok());
  EXPECT_EQ(merged.bitmaps(), a.bitmaps());
}

TEST(PcsaSketchTest, MergeWithEmptyIsIdentity) {
  PcsaSketch a, empty;
  for (uint64_t i = 0; i < 5000; ++i) a.Add(i * 31);
  PcsaSketch merged = a;
  ASSERT_TRUE(merged.MergeFrom(empty).ok());
  EXPECT_EQ(merged.bitmaps(), a.bitmaps());
}

// ----------------------------------------------------------- ExactCounter --

TEST(ExactCounterTest, CountsDistinct) {
  ExactCounter counter;
  counter.AddAll({1, 2, 3, 2, 1});
  EXPECT_EQ(counter.Count(), 3u);
  counter.Add(4);
  EXPECT_EQ(counter.Count(), 4u);
}

TEST(ExactCounterTest, MergeIsUnion) {
  ExactCounter a, b;
  a.AddAll({1, 2, 3});
  b.AddAll({3, 4});
  a.MergeFrom(b);
  EXPECT_EQ(a.Count(), 4u);
}

TEST(PcsaVsExactTest, AgreesWithinPaperTolerance) {
  // The paper reports ≤7% worst-case error for its setup; with 256 maps we
  // verify a union-heavy scenario stays well-behaved (< 15% here to keep
  // the test deterministic-robust; the bench measures the real figure).
  PcsaSketch s1, s2;
  ExactCounter exact;
  for (uint64_t i = 0; i < 60'000; ++i) {
    const uint64_t v = i * 0x9e3779b97f4a7c15ULL + 17;
    s1.Add(v);
    exact.Add(v);
  }
  for (uint64_t i = 30'000; i < 110'000; ++i) {
    const uint64_t v = i * 0x9e3779b97f4a7c15ULL + 17;
    s2.Add(v);
    exact.Add(v);
  }
  ASSERT_TRUE(s1.MergeFrom(s2).ok());
  const double estimate = s1.Estimate();
  const double truth = static_cast<double>(exact.Count());
  EXPECT_LT(std::abs(estimate - truth) / truth, 0.15);
}

// ------------------------------------------------------------ simd kernels --
//
// The production kernels in sketch/simd.h must be bit-identical to their
// reference-scalar twins for every input — including misaligned pointers,
// tail lengths that don't fill a 256-bit block, and the countr_one edge
// words (all-zero, all-ones). The sweeps below exercise each dispatch path
// the binary actually has (AVX2 or unrolled-scalar) against simd::ref.

// Words with varied trailing-ones runs: mixes of random bits, all-ones,
// all-zeros, and long low-bit runs (the patterns PCSA bitmaps take).
std::vector<uint64_t> KernelWords(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<uint64_t> words(n);
  for (size_t i = 0; i < n; ++i) {
    switch (rng.Uniform(5)) {
      case 0: words[i] = 0; break;
      case 1: words[i] = ~uint64_t{0}; break;
      case 2: words[i] = (uint64_t{1} << rng.Uniform(64)) - 1; break;  // 0..63 ones
      case 3: words[i] = rng.Next() | 1; break;
      default: words[i] = rng.Next() & rng.Next(); break;
    }
  }
  return words;
}

// Lengths around every unroll boundary: empty, sub-block, block edges, and
// the num_maps values real configs use (2 minimum, 2048 default, 4096).
const size_t kKernelLengths[] = {0, 1,  2,  3,   4,   5,   7,    8,
                                 15, 16, 17, 31, 32,  33,  63,   64,
                                 65, 127, 128, 129, 2048, 4096};

TEST(SimdKernelTest, OrIntoMatchesReferenceAcrossLengthsAndOffsets) {
  for (size_t n : kKernelLengths) {
    for (size_t offset = 0; offset < 3; ++offset) {
      std::vector<uint64_t> src = KernelWords(n + offset, 101 + n);
      std::vector<uint64_t> dst_ref = KernelWords(n + offset, 202 + n);
      std::vector<uint64_t> dst_opt = dst_ref;
      simd::ref::OrInto(dst_ref.data() + offset, src.data() + offset, n);
      simd::OrInto(dst_opt.data() + offset, src.data() + offset, n);
      EXPECT_EQ(dst_ref, dst_opt) << "n=" << n << " offset=" << offset;
    }
  }
}

TEST(SimdKernelTest, TrailingOnesSumMatchesReference) {
  for (size_t n : kKernelLengths) {
    for (size_t offset = 0; offset < 3; ++offset) {
      std::vector<uint64_t> words = KernelWords(n + offset, 303 + n);
      EXPECT_EQ(simd::ref::TrailingOnesSum(words.data() + offset, n),
                simd::TrailingOnesSum(words.data() + offset, n))
          << "n=" << n << " offset=" << offset;
    }
  }
}

TEST(SimdKernelTest, TrailingOnesSumCountsAllOnesWordAs64) {
  // countr_one(all-ones) = 64: the case the vectorized
  // popcount((~x−1) & x) identity must get right (popcount(x^(x+1))−1,
  // the tempting shortcut, yields 63 here).
  std::vector<uint64_t> words(17, ~uint64_t{0});
  EXPECT_EQ(simd::TrailingOnesSum(words.data(), words.size()), 17u * 64u);
  EXPECT_EQ(simd::ref::TrailingOnesSum(words.data(), words.size()),
            17u * 64u);
}

TEST(SimdKernelTest, AllZeroMatchesReference) {
  for (size_t n : kKernelLengths) {
    std::vector<uint64_t> zeros(n, 0);
    EXPECT_EQ(simd::AllZero(zeros.data(), n),
              simd::ref::AllZero(zeros.data(), n));
    if (n == 0) continue;
    for (size_t hot : {size_t{0}, n / 2, n - 1}) {
      std::vector<uint64_t> words(n, 0);
      words[hot] = 1;
      EXPECT_EQ(simd::AllZero(words.data(), n),
                simd::ref::AllZero(words.data(), n))
          << "n=" << n << " hot=" << hot;
      EXPECT_FALSE(simd::AllZero(words.data(), n));
    }
  }
}

TEST(SimdKernelTest, AndPopcountMatchesReference) {
  for (size_t n : kKernelLengths) {
    for (size_t offset = 0; offset < 3; ++offset) {
      std::vector<uint64_t> a = KernelWords(n + offset, 404 + n);
      std::vector<uint64_t> b = KernelWords(n + offset, 505 + n);
      EXPECT_EQ(
          simd::ref::AndPopcount(a.data() + offset, b.data() + offset, n),
          simd::AndPopcount(a.data() + offset, b.data() + offset, n))
          << "n=" << n << " offset=" << offset;
    }
  }
}

TEST(SimdKernelTest, UnionTrailingOnesSumMatchesReferenceComposition) {
  for (size_t n : {size_t{1}, size_t{2}, size_t{8}, size_t{17}, size_t{130},
                   size_t{2048}, size_t{4096}}) {
    for (size_t k : {size_t{1}, size_t{2}, size_t{3}, size_t{24}}) {
      std::vector<std::vector<uint64_t>> srcs;
      std::vector<const uint64_t*> ptrs;
      for (size_t s = 0; s < k; ++s) {
        srcs.push_back(KernelWords(n, 606 + n * 31 + s));
        ptrs.push_back(srcs.back().data());
      }
      std::vector<uint64_t> merged(n, 0);
      for (size_t s = 0; s < k; ++s) {
        simd::ref::OrInto(merged.data(), ptrs[s], n);
      }
      EXPECT_EQ(simd::ref::TrailingOnesSum(merged.data(), n),
                simd::UnionTrailingOnesSum(ptrs.data(), k, n))
          << "n=" << n << " k=" << k;
    }
  }
}

TEST(SimdKernelTest, UnionTrailingOnesSumBatchMatchesPerSubsetCalls) {
  const size_t n = 2048;
  std::vector<std::vector<uint64_t>> pool;
  for (size_t s = 0; s < 10; ++s) pool.push_back(KernelWords(n, 707 + s));
  Rng rng(808);
  std::vector<std::vector<const uint64_t*>> subsets(13);
  std::vector<const uint64_t* const*> heads;
  std::vector<size_t> sizes;
  for (std::vector<const uint64_t*>& subset : subsets) {
    const size_t k = 1 + rng.Uniform(6);
    for (size_t s = 0; s < k; ++s) {
      subset.push_back(pool[rng.Uniform(pool.size())].data());
    }
    heads.push_back(subset.data());
    sizes.push_back(subset.size());
  }
  std::vector<uint64_t> sums(subsets.size());
  simd::UnionTrailingOnesSumBatch(heads.data(), sizes.data(), subsets.size(),
                                  n, sums.data());
  for (size_t t = 0; t < subsets.size(); ++t) {
    EXPECT_EQ(sums[t],
              simd::UnionTrailingOnesSum(heads[t], sizes[t], n))
        << "subset " << t;
  }
}

// ------------------------------------------------- fused union/estimate ----

PcsaSketch SeededSketch(const PcsaConfig& config, uint64_t seed,
                        uint64_t items) {
  PcsaSketch sketch(config);
  std::vector<uint64_t> values;
  values.reserve(items);
  for (uint64_t i = 0; i < items; ++i) {
    values.push_back(i * 0x9e3779b97f4a7c15ULL + seed);
  }
  sketch.AddAll(values);
  return sketch;
}

TEST(PcsaSketchTest, AddAllMatchesAddLoop) {
  PcsaSketch one_by_one, batched;
  std::vector<uint64_t> items;
  for (uint64_t i = 0; i < 20'000; ++i) {
    items.push_back(i * 0x9e3779b97f4a7c15ULL + 7);
  }
  for (uint64_t item : items) one_by_one.Add(item);
  batched.AddAll(items);
  EXPECT_EQ(one_by_one.bitmaps(), batched.bitmaps());
}

TEST(PcsaSketchTest, MergeFromManyMatchesSequentialMerges) {
  for (uint32_t num_maps : {2u, 8u, 2048u, 4096u}) {
    PcsaConfig config;
    config.num_maps = num_maps;
    std::vector<PcsaSketch> others;
    std::vector<const PcsaSketch*> ptrs;
    for (uint64_t s = 0; s < 5; ++s) {
      others.push_back(SeededSketch(config, s * 1000, 3000));
    }
    for (const PcsaSketch& other : others) ptrs.push_back(&other);

    PcsaSketch sequential = SeededSketch(config, 99, 1000);
    PcsaSketch fused = sequential;
    for (const PcsaSketch& other : others) {
      ASSERT_TRUE(sequential.MergeFrom(other).ok());
    }
    ASSERT_TRUE(fused.MergeFromMany(ptrs).ok());
    EXPECT_EQ(sequential.bitmaps(), fused.bitmaps()) << num_maps << " maps";
  }
}

TEST(PcsaSketchTest, MergeFromManyMismatchLeavesSketchUnchanged) {
  PcsaConfig config;
  PcsaConfig other_config;
  other_config.num_maps = 128;
  PcsaSketch target = SeededSketch(config, 1, 2000);
  const std::vector<uint64_t> before = target.bitmaps();
  PcsaSketch good(config), bad(other_config);
  const std::vector<const PcsaSketch*> mixed = {&good, &bad};
  EXPECT_FALSE(target.MergeFromMany(mixed).ok());
  EXPECT_EQ(target.bitmaps(), before);
}

TEST(PcsaSketchTest, UnionEstimateMatchesMergeThenEstimate) {
  for (uint32_t num_maps : {2u, 8u, 2048u, 4096u}) {
    PcsaConfig config;
    config.num_maps = num_maps;
    std::vector<PcsaSketch> sketches;
    std::vector<const PcsaSketch*> ptrs;
    for (uint64_t s = 0; s < 6; ++s) {
      sketches.push_back(SeededSketch(config, s * 7919, 5000));
    }
    // One corrupted signature in the mix: the fused estimate must agree on
    // adversarial bit patterns too, not just well-formed ones.
    sketches.push_back(sketches.front().CorruptedCopy(42));
    for (const PcsaSketch& sketch : sketches) ptrs.push_back(&sketch);

    PcsaSketch merged(config);
    ASSERT_TRUE(merged.MergeFromMany(ptrs).ok());
    const double via_merge = merged.IsEmpty() ? 0.0 : merged.Estimate();
    const double fused = PcsaSketch::UnionEstimate(ptrs);
    EXPECT_EQ(std::memcmp(&via_merge, &fused, sizeof(double)), 0)
        << num_maps << " maps: " << via_merge << " vs " << fused;
  }
}

TEST(PcsaSketchTest, UnionEstimateOfEmptySketchesIsExactlyZero) {
  PcsaSketch a, b;
  const std::vector<const PcsaSketch*> ptrs = {&a, &b};
  EXPECT_EQ(PcsaSketch::UnionEstimate(ptrs), 0.0);
  EXPECT_EQ(PcsaSketch::UnionEstimate({}), 0.0);
}

TEST(PcsaSketchTest, UnionEstimateBatchMatchesPerSubsetUnionEstimate) {
  PcsaConfig config;
  std::vector<PcsaSketch> pool;
  for (uint64_t s = 0; s < 8; ++s) {
    pool.push_back(SeededSketch(config, s * 131, 4000));
  }
  Rng rng(909);
  std::vector<std::vector<const PcsaSketch*>> subsets(9);
  for (size_t t = 0; t + 1 < subsets.size(); ++t) {
    const size_t k = 1 + rng.Uniform(5);
    for (size_t s = 0; s < k; ++s) {
      subsets[t].push_back(&pool[rng.Uniform(pool.size())]);
    }
  }
  // Last subset left empty: must come back exactly 0.0, like UnionEstimate
  // on an empty span.
  std::vector<double> batch(subsets.size(), -1.0);
  PcsaSketch::UnionEstimateBatch(subsets, batch);
  for (size_t t = 0; t < subsets.size(); ++t) {
    const double single = PcsaSketch::UnionEstimate(subsets[t]);
    EXPECT_EQ(std::memcmp(&batch[t], &single, sizeof(double)), 0)
        << "subset " << t;
  }
  EXPECT_EQ(batch.back(), 0.0);
}

TEST(PcsaSketchTest, UnionEstimateBatchAllEmptySubsets) {
  std::vector<std::vector<const PcsaSketch*>> subsets(3);
  std::vector<double> out(3, -1.0);
  PcsaSketch::UnionEstimateBatch(subsets, out);
  for (double estimate : out) EXPECT_EQ(estimate, 0.0);
}

// --------------------------------------------------------- SignatureCache --

Universe CacheUniverse() {
  Universe u;
  {
    Source s(0, "a");
    s.AddAttribute(Attribute("x"));
    std::vector<uint64_t> tuples;
    for (uint64_t i = 0; i < 40'000; ++i) tuples.push_back(i);
    s.SetTuples(std::move(tuples));
    u.AddSource(std::move(s));
  }
  {
    Source s(0, "b");
    s.AddAttribute(Attribute("y"));
    std::vector<uint64_t> tuples;
    for (uint64_t i = 20'000; i < 60'000; ++i) tuples.push_back(i);
    s.SetTuples(std::move(tuples));
    u.AddSource(std::move(s));
  }
  {
    Source s(0, "c");  // uncooperative
    s.AddAttribute(Attribute("z"));
    s.set_cardinality(1000);
    u.AddSource(std::move(s));
  }
  return u;
}

TEST(SignatureCacheTest, CooperativeDetection) {
  Universe u = CacheUniverse();
  SignatureCache cache(u, PcsaConfig());
  EXPECT_TRUE(cache.IsCooperative(0));
  EXPECT_TRUE(cache.IsCooperative(1));
  EXPECT_FALSE(cache.IsCooperative(2));
  EXPECT_EQ(cache.cooperative_count(), 2u);
  EXPECT_NE(cache.SketchOf(0), nullptr);
  EXPECT_EQ(cache.SketchOf(2), nullptr);
}

TEST(SignatureCacheTest, UnionEstimates) {
  Universe u = CacheUniverse();
  SignatureCache cache(u, PcsaConfig());
  // |a| = 40k, |b| = 40k, |a ∪ b| = 60k.
  const double a = cache.EstimateUnion({0});
  const double b = cache.EstimateUnion({1});
  const double ab = cache.EstimateUnion({0, 1});
  EXPECT_NEAR(a, 40'000, 40'000 * 0.2);
  EXPECT_NEAR(b, 40'000, 40'000 * 0.2);
  EXPECT_NEAR(ab, 60'000, 60'000 * 0.2);
  // Union estimate of the same sketch config is superadditive-safe:
  // |a ∪ b| >= max(|a|, |b|) because OR only adds bits.
  EXPECT_GE(ab, std::max(a, b));
}

TEST(SignatureCacheTest, UncooperativeSkippedInUnions) {
  Universe u = CacheUniverse();
  SignatureCache cache(u, PcsaConfig());
  EXPECT_DOUBLE_EQ(cache.EstimateUnion({2}), 0.0);
  EXPECT_DOUBLE_EQ(cache.EstimateUnion({0, 2}), cache.EstimateUnion({0}));
}

TEST(SignatureCacheTest, EmptySetEstimatesZero) {
  Universe u = CacheUniverse();
  SignatureCache cache(u, PcsaConfig());
  EXPECT_DOUBLE_EQ(cache.EstimateUnion({}), 0.0);
}

TEST(SignatureCacheTest, MemoizationIsOrderIndependent) {
  Universe u = CacheUniverse();
  SignatureCache cache(u, PcsaConfig());
  EXPECT_DOUBLE_EQ(cache.EstimateUnion({0, 1}), cache.EstimateUnion({1, 0}));
}

TEST(SignatureCacheTest, UniverseUnionCoversEverything) {
  Universe u = CacheUniverse();
  SignatureCache cache(u, PcsaConfig());
  EXPECT_NEAR(cache.EstimateUniverseUnion(), cache.EstimateUnion({0, 1}),
              1e-9);
}

TEST(SignatureCacheTest, UnionSketchMatchesSequentialMerge) {
  Universe u = CacheUniverse();
  SignatureCache cache(u, PcsaConfig());
  PcsaSketch sequential{PcsaConfig()};
  ASSERT_TRUE(sequential.MergeFrom(*cache.SketchOf(0)).ok());
  ASSERT_TRUE(sequential.MergeFrom(*cache.SketchOf(1)).ok());
  // Uncooperative source 2 contributes nothing either way.
  const PcsaSketch merged = cache.UnionSketch({0, 1, 2});
  EXPECT_EQ(merged.bitmaps(), sequential.bitmaps());
}

TEST(SignatureCacheTest, EstimateUnionSurvivesMemoChurn) {
  // Evict-and-reinsert churn through the flat-map memo: drive far more
  // distinct subsets than the memo capacity, then confirm re-queried
  // subsets still return the identical doubles after their entries were
  // evicted and recomputed.
  Universe u;
  PcsaConfig config;
  config.num_maps = 64;
  for (uint32_t id = 0; id < 12; ++id) {
    std::string name = "s";
    name += std::to_string(id);
    Source s(0, name);
    s.AddAttribute(Attribute("x"));
    std::vector<uint64_t> tuples;
    for (uint64_t i = 0; i < 500; ++i) tuples.push_back(id * 400 + i);
    s.SetTuples(std::move(tuples));
    u.AddSource(std::move(s));
  }
  SignatureCache cache(u, config);
  cache.set_memo_capacity(16);
  std::vector<std::vector<uint32_t>> probes;
  for (uint32_t a = 0; a < 12; ++a) {
    for (uint32_t b = a; b < 12; ++b) probes.push_back({a, b});
  }
  std::vector<double> first;
  for (const std::vector<uint32_t>& probe : probes) {
    first.push_back(cache.EstimateUnion(probe));
  }
  for (int round = 0; round < 5; ++round) {
    for (size_t p = 0; p < probes.size(); ++p) {
      EXPECT_DOUBLE_EQ(cache.EstimateUnion(probes[p]), first[p]);
    }
  }
  const SignatureCache::MemoStats stats = cache.memo_stats();
  EXPECT_GT(stats.evictions, 0u);  // 78 distinct subsets vs capacity 16
  EXPECT_GT(stats.misses, 0u);
}

TEST(SignatureCacheTest, SignatureMemoryIsSmall) {
  Universe u = CacheUniverse();
  SignatureCache cache(u, PcsaConfig());
  // Two cooperative sources x 16KB each (the default config).
  EXPECT_EQ(cache.TotalSignatureBytes(),
            2u * size_t{PcsaConfig().num_maps} * 8u);
}

}  // namespace
}  // namespace mube
