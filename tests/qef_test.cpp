// Tests for src/qef: the QefSet weight machinery, the data QEFs
// (Card/Coverage/Redundancy) against analytically known overlaps, the
// characteristic QEFs and aggregators, and the memoizing match QEF.

#include <cmath>
#include <memory>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "match/matcher.h"
#include "qef/characteristic_qef.h"
#include "qef/data_qefs.h"
#include "qef/health_qef.h"
#include "qef/match_qef.h"
#include "qef/qef.h"
#include "schema/universe.h"
#include "sketch/signature_cache.h"
#include "text/similarity.h"
#include "text/similarity_matrix.h"

namespace mube {
namespace {

/// A QEF returning a constant, for weight-sum tests.
class ConstantQef : public Qef {
 public:
  explicit ConstantQef(double value) : value_(value) {}
  double Evaluate(const std::vector<uint32_t>&) const override {
    return value_;
  }
  std::string name() const override { return "const"; }

 private:
  double value_;
};

// ------------------------------------------------------------------ QefSet --

TEST(QefSetTest, AddValidatesWeightRange) {
  QefSet set;
  EXPECT_TRUE(set.Add(std::make_unique<ConstantQef>(1.0), 0.5).ok());
  EXPECT_FALSE(set.Add(std::make_unique<ConstantQef>(1.0), 1.5).ok());
  EXPECT_FALSE(set.Add(std::make_unique<ConstantQef>(1.0), -0.1).ok());
  EXPECT_FALSE(set.Add(nullptr, 0.5).ok());
}

TEST(QefSetTest, ValidateWeightsRequiresSumOne) {
  QefSet set;
  ASSERT_TRUE(set.Add(std::make_unique<ConstantQef>(1.0), 0.5).ok());
  ASSERT_TRUE(set.Add(std::make_unique<ConstantQef>(1.0), 0.3).ok());
  EXPECT_FALSE(set.ValidateWeights().ok());
  ASSERT_TRUE(set.Add(std::make_unique<ConstantQef>(1.0), 0.2).ok());
  EXPECT_TRUE(set.ValidateWeights().ok());
}

TEST(QefSetTest, OverallQualityIsWeightedSum) {
  QefSet set;
  ASSERT_TRUE(set.Add(std::make_unique<ConstantQef>(1.0), 0.25).ok());
  ASSERT_TRUE(set.Add(std::make_unique<ConstantQef>(0.5), 0.75).ok());
  EXPECT_NEAR(set.OverallQuality({0}), 0.25 * 1.0 + 0.75 * 0.5, 1e-12);
}

TEST(QefSetTest, SetWeightsReplacesAndValidates) {
  QefSet set;
  ASSERT_TRUE(set.Add(std::make_unique<ConstantQef>(1.0), 0.5).ok());
  ASSERT_TRUE(set.Add(std::make_unique<ConstantQef>(0.0), 0.5).ok());
  EXPECT_FALSE(set.SetWeights({0.3}).ok());          // wrong count
  EXPECT_FALSE(set.SetWeights({0.3, 1.4}).ok());     // out of range
  EXPECT_TRUE(set.SetWeights({0.9, 0.1}).ok());
  EXPECT_NEAR(set.OverallQuality({}), 0.9, 1e-12);
}

TEST(QefSetTest, NormalizeWeights) {
  QefSet set;
  ASSERT_TRUE(set.Add(std::make_unique<ConstantQef>(1.0), 0.5).ok());
  ASSERT_TRUE(set.Add(std::make_unique<ConstantQef>(1.0), 0.25).ok());
  ASSERT_TRUE(set.NormalizeWeights().ok());
  EXPECT_TRUE(set.ValidateWeights().ok());
  EXPECT_NEAR(set.weight(0), 2.0 / 3.0, 1e-12);
}

TEST(QefSetTest, FindByName) {
  QefSet set;
  ASSERT_TRUE(set.Add(std::make_unique<ConstantQef>(1.0), 1.0).ok());
  EXPECT_EQ(set.FindByName("const"), 0);
  EXPECT_EQ(set.FindByName("missing"), -1);
}

// ------------------------------------------------------------- data QEFs --

/// Universe with analytically known overlap structure:
///   s0: tuples [0, 40k)          |s0| = 40k
///   s1: tuples [20k, 60k)        |s1| = 40k, |s0 ∪ s1| = 60k
///   s2: tuples [0, 20k)          |s2| = 20k, subset of s0
///   s3: uncooperative, |s3| = 50k (reported)
Universe DataUniverse() {
  auto range = [](uint64_t lo, uint64_t hi) {
    std::vector<uint64_t> t;
    t.reserve(hi - lo);
    for (uint64_t i = lo; i < hi; ++i) t.push_back(i);
    return t;
  };
  Universe u;
  for (int i = 0; i < 4; ++i) {
    Source s(0, "s" + std::to_string(i));
    s.AddAttribute(Attribute("x"));
    u.AddSource(std::move(s));
  }
  u.mutable_source(0).SetTuples(range(0, 40'000));
  u.mutable_source(1).SetTuples(range(20'000, 60'000));
  u.mutable_source(2).SetTuples(range(0, 20'000));
  u.mutable_source(3).set_cardinality(50'000);
  u.RefreshStatistics();
  return u;
}

TEST(CardQefTest, FractionOfUniverseTotal) {
  Universe u = DataUniverse();
  CardQef card(u);
  // Total = 40k + 40k + 20k + 50k = 150k.
  EXPECT_NEAR(card.Evaluate({0}), 40'000.0 / 150'000.0, 1e-12);
  EXPECT_NEAR(card.Evaluate({0, 1, 2, 3}), 1.0, 1e-12);
  EXPECT_DOUBLE_EQ(card.Evaluate({}), 0.0);
  EXPECT_EQ(card.RawCardinality({1, 3}), 90'000u);
}

TEST(CoverageQefTest, TracksDistinctUnion) {
  Universe u = DataUniverse();
  SignatureCache cache(u, PcsaConfig());
  CoverageQef coverage(u, cache);
  // Universe distinct = 60k (s3 contributes nothing — no signature).
  // s0 alone covers 40k/60k ≈ 0.667.
  EXPECT_NEAR(coverage.Evaluate({0}), 2.0 / 3.0, 0.12);
  EXPECT_NEAR(coverage.Evaluate({0, 1}), 1.0, 0.05);
  // s2 ⊂ s0: adding it must not increase coverage.
  EXPECT_NEAR(coverage.Evaluate({0, 2}), coverage.Evaluate({0}), 1e-9);
  EXPECT_DOUBLE_EQ(coverage.Evaluate({}), 0.0);
  // Range contract.
  EXPECT_LE(coverage.Evaluate({0, 1, 2, 3}), 1.0);
}

TEST(RedundancyQefTest, OneIsNoOverlapZeroIsTotal) {
  Universe u = DataUniverse();
  // Redundancy amplifies sketch error by k/(k-1); use a high-resolution
  // sketch (standard error ≈ 0.78/√4096 ≈ 1.2%) so the analytic values are
  // testable.
  PcsaConfig config;
  config.num_maps = 4096;
  SignatureCache cache(u, config);
  RedundancyQef redundancy(u, cache);

  // s0 and s2: s2 fully inside s0 -> heavy overlap.
  // ratio = 40k/60k = 2/3, k = 2 -> (2*(2/3)-1)/1 = 1/3.
  EXPECT_NEAR(redundancy.Evaluate({0, 2}), 1.0 / 3.0, 0.1);
  // s0 and s1 overlap half: ratio = 60k/80k = 0.75 -> (1.5-1)/1 = 0.5.
  EXPECT_NEAR(redundancy.Evaluate({0, 1}), 0.5, 0.1);
  // Single source: perfect (nothing to overlap with).
  EXPECT_DOUBLE_EQ(redundancy.Evaluate({0}), 1.0);
  // Only uncooperative: 0 per the paper's fallback.
  EXPECT_DOUBLE_EQ(redundancy.Evaluate({3}), 0.0);
  // Uncooperative sources are excluded, not penalized.
  EXPECT_NEAR(redundancy.Evaluate({0, 1, 3}), redundancy.Evaluate({0, 1}),
              1e-9);
}

TEST(RedundancyQefTest, DisjointSourcesScoreNearOne) {
  auto range = [](uint64_t lo, uint64_t hi) {
    std::vector<uint64_t> t;
    for (uint64_t i = lo; i < hi; ++i) t.push_back(i);
    return t;
  };
  Universe u;
  for (int i = 0; i < 3; ++i) {
    Source s(0, "d" + std::to_string(i));
    s.AddAttribute(Attribute("x"));
    u.AddSource(std::move(s));
  }
  u.mutable_source(0).SetTuples(range(0, 30'000));
  u.mutable_source(1).SetTuples(range(30'000, 60'000));
  u.mutable_source(2).SetTuples(range(60'000, 90'000));
  u.RefreshStatistics();
  SignatureCache cache(u, PcsaConfig());
  RedundancyQef redundancy(u, cache);
  EXPECT_GT(redundancy.Evaluate({0, 1, 2}), 0.85);
}

// ---------------------------------------------------- characteristic QEFs --

Universe CharacteristicUniverse() {
  Universe u;
  const double mttf[] = {50.0, 100.0, 150.0};
  const uint64_t card[] = {1000, 1000, 2000};
  for (int i = 0; i < 3; ++i) {
    Source s(0, "c" + std::to_string(i));
    s.AddAttribute(Attribute("x"));
    s.set_cardinality(card[i]);
    s.characteristics().Set("mttf", mttf[i]);
    u.AddSource(std::move(s));
  }
  // A source that does not report mttf.
  Source s(0, "mute");
  s.AddAttribute(Attribute("x"));
  s.set_cardinality(500);
  u.AddSource(std::move(s));
  return u;
}

TEST(AggregatorTest, WeightedSumMatchesPaperFormula) {
  Universe u = CharacteristicUniverse();
  WeightedSumAggregator wsum;
  // S = {0, 2}: min_U = 50, max_U = 150.
  // ((50-50)*1000 + (150-50)*2000) / ((1000+2000) * (150-50)) = 2/3.
  EXPECT_NEAR(wsum.Aggregate(u, {0, 2}, "mttf"), 2.0 / 3.0, 1e-12);
  // Best source only: normalized value 1.
  EXPECT_NEAR(wsum.Aggregate(u, {2}, "mttf"), 1.0, 1e-12);
  // Worst source only: 0.
  EXPECT_NEAR(wsum.Aggregate(u, {0}, "mttf"), 0.0, 1e-12);
  EXPECT_DOUBLE_EQ(wsum.Aggregate(u, {}, "mttf"), 0.0);
}

TEST(AggregatorTest, MissingCharacteristicTreatedAsMinimum) {
  Universe u = CharacteristicUniverse();
  WeightedSumAggregator wsum;
  // The mute source contributes cardinality but zero value.
  const double with_mute = wsum.Aggregate(u, {2, 3}, "mttf");
  const double without = wsum.Aggregate(u, {2}, "mttf");
  EXPECT_LT(with_mute, without);
}

TEST(AggregatorTest, UnknownCharacteristicScoresZero) {
  Universe u = CharacteristicUniverse();
  WeightedSumAggregator wsum;
  EXPECT_DOUBLE_EQ(wsum.Aggregate(u, {0, 1}, "fee"), 0.0);
}

TEST(AggregatorTest, MeanMinMax) {
  Universe u = CharacteristicUniverse();
  MeanAggregator mean;
  MinAggregator min_agg;
  MaxAggregator max_agg;
  // Normalized values: s0 = 0, s1 = 0.5, s2 = 1.
  EXPECT_NEAR(mean.Aggregate(u, {0, 1, 2}, "mttf"), 0.5, 1e-12);
  EXPECT_NEAR(min_agg.Aggregate(u, {1, 2}, "mttf"), 0.5, 1e-12);
  EXPECT_NEAR(max_agg.Aggregate(u, {0, 1}, "mttf"), 0.5, 1e-12);
}

TEST(AggregatorTest, Factory) {
  EXPECT_TRUE(MakeAggregator("wsum").ok());
  EXPECT_TRUE(MakeAggregator("mean").ok());
  EXPECT_TRUE(MakeAggregator("min").ok());
  EXPECT_TRUE(MakeAggregator("max").ok());
  EXPECT_FALSE(MakeAggregator("median").ok());
}

TEST(CharacteristicQefTest, InvertFlipsOrientation) {
  Universe u = CharacteristicUniverse();
  CharacteristicQef straight(u, "mttf",
                             std::make_unique<WeightedSumAggregator>(),
                             /*invert=*/false);
  CharacteristicQef inverted(u, "mttf",
                             std::make_unique<WeightedSumAggregator>(),
                             /*invert=*/true);
  EXPECT_NEAR(straight.Evaluate({2}) + inverted.Evaluate({2}), 1.0, 1e-12);
  EXPECT_EQ(straight.name(), "mttf:wsum");
  EXPECT_EQ(inverted.name(), "mttf:wsum:inverted");
}

TEST(CharacteristicQefTest, RetiredSourcesDoNotStretchTheRange) {
  // The range is over U, and a retired source is not in U: retiring the
  // source that holds the maximum must score live subsets exactly as a
  // universe that never had it.
  Universe with_peak = CharacteristicUniverse();
  Source peak(0, "peak");
  peak.AddAttribute(Attribute("x"));
  peak.set_cardinality(1000);
  peak.characteristics().Set("mttf", 400.0);
  with_peak.RetireSource(with_peak.AddSource(std::move(peak)));
  const Universe without = CharacteristicUniverse();

  const auto range = internal::CharacteristicRange(with_peak, "mttf");
  EXPECT_EQ(range, internal::CharacteristicRange(without, "mttf"));
  EXPECT_EQ(range, std::make_pair(50.0, 150.0));

  CharacteristicQef retired_qef(with_peak, "mttf",
                                std::make_unique<WeightedSumAggregator>());
  CharacteristicQef plain_qef(without, "mttf",
                              std::make_unique<WeightedSumAggregator>());
  for (const std::vector<uint32_t>& s :
       std::vector<std::vector<uint32_t>>{{0, 2}, {1}, {0, 1, 2, 3}}) {
    EXPECT_EQ(retired_qef.Evaluate(s), plain_qef.Evaluate(s));
    EXPECT_EQ(MeanAggregator().Aggregate(with_peak, s, "mttf"),
              MeanAggregator().Aggregate(without, s, "mttf"));
  }
  EXPECT_NEAR(retired_qef.Evaluate({0, 2}), 2.0 / 3.0, 1e-12);
}

// ------------------------------------------------------------- health QEF --

TEST(SourceHealthQefTest, MeanOverSubsetWithHealthyDefault) {
  SourceHealthQef qef({{0, 0.5}, {1, 0.0}, {2, 1.5}, {3, -0.25}});
  EXPECT_EQ(qef.name(), "health");
  EXPECT_DOUBLE_EQ(qef.Evaluate({0}), 0.5);
  EXPECT_DOUBLE_EQ(qef.Evaluate({1}), 0.0);
  EXPECT_DOUBLE_EQ(qef.Evaluate({2}), 1.0);   // clamped from above
  EXPECT_DOUBLE_EQ(qef.Evaluate({3}), 0.0);   // clamped from below
  EXPECT_DOUBLE_EQ(qef.Evaluate({9}), 1.0);   // unobserved: healthy
  EXPECT_DOUBLE_EQ(qef.Evaluate({0, 1, 9, 42}), (0.5 + 0.0 + 1.0 + 1.0) / 4);
  EXPECT_DOUBLE_EQ(qef.Evaluate({}), 0.0);
}

// -------------------------------------------------------------- match QEF --

TEST(MatchQefTest, MemoizesAndMatchesDirectCalls) {
  Universe u;
  for (int i = 0; i < 3; ++i) {
    Source s(0, "m" + std::to_string(i));
    s.AddAttribute(Attribute("title"));
    u.AddSource(std::move(s));
  }
  NGramJaccard measure(3);
  SimilarityMatrix matrix(u, measure);
  Matcher matcher(u, matrix);

  MatchOptions options;
  options.theta = 0.75;
  MatchQualityQef qef(matcher, options, {}, MediatedSchema());

  EXPECT_EQ(qef.cache_size(), 0u);
  const double q1 = qef.Evaluate({0, 1});
  EXPECT_EQ(qef.cache_size(), 1u);
  const double q2 = qef.Evaluate({1, 0});  // same subset, different order
  EXPECT_EQ(qef.cache_size(), 1u);
  EXPECT_DOUBLE_EQ(q1, q2);
  EXPECT_DOUBLE_EQ(q1, 1.0);

  const MatchResult& full = qef.MatchFor({0, 1, 2});
  EXPECT_EQ(qef.cache_size(), 2u);
  EXPECT_TRUE(full.feasible);
  EXPECT_EQ(full.schema.size(), 1u);
}

TEST(MatchQefTest, InfeasibleSubsetsScoreZero) {
  Universe u;
  {
    Source s(0, "a");
    s.AddAttribute(Attribute("alpha"));
    u.AddSource(std::move(s));
  }
  {
    Source s(0, "b");
    s.AddAttribute(Attribute("omega"));
    u.AddSource(std::move(s));
  }
  NGramJaccard measure(3);
  SimilarityMatrix matrix(u, measure);
  Matcher matcher(u, matrix);
  MatchOptions options;
  options.theta = 0.75;
  // Constraint on source 0, which nothing matches -> infeasible.
  MatchQualityQef qef(matcher, options, {0}, MediatedSchema());
  EXPECT_DOUBLE_EQ(qef.Evaluate({0, 1}), 0.0);
  EXPECT_FALSE(qef.MatchFor({0, 1}).feasible);
}

}  // namespace
}  // namespace mube
