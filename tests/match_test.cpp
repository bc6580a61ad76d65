// Tests for src/match: Algorithm 1's constrained greedy similarity
// clustering — validity guarantees, θ enforcement, the Figure 3 GA-
// constraint bridging behaviour, source-constraint feasibility, the β
// bound, property sweeps over random universes, an exhaustive reference
// oracle for Match(S), and a guard on how Match(S) reads the similarity
// source.

#include <algorithm>
#include <bit>
#include <map>
#include <queue>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "datagen/generator.h"
#include "match/matcher.h"
#include "match/naive_matcher.h"
#include "schema/universe.h"
#include "text/similarity.h"
#include "text/similarity_matrix.h"
#include "text/sparse_similarity.h"

namespace mube {
namespace {

Universe BuildUniverse(const std::vector<std::vector<std::string>>& schemas) {
  Universe u;
  for (size_t i = 0; i < schemas.size(); ++i) {
    Source s(0, "src" + std::to_string(i));
    for (const std::string& attr : schemas[i]) {
      s.AddAttribute(Attribute(attr));
    }
    u.AddSource(std::move(s));
  }
  return u;
}

struct MatchFixture {
  explicit MatchFixture(const std::vector<std::vector<std::string>>& schemas)
      : universe(BuildUniverse(schemas)),
        measure(3),
        matrix(universe, measure),
        matcher(universe, matrix) {}

  std::vector<uint32_t> AllSources() const {
    std::vector<uint32_t> ids;
    for (uint32_t i = 0; i < universe.size(); ++i) ids.push_back(i);
    return ids;
  }

  Universe universe;
  NGramJaccard measure;
  SimilarityMatrix matrix;
  Matcher matcher;
};

MatchOptions Options(double theta, size_t beta = 2) {
  MatchOptions o;
  o.theta = theta;
  o.beta = beta;
  return o;
}

// ----------------------------------------------------------- basic merges --

TEST(MatcherTest, IdenticalNamesCluster) {
  MatchFixture f({{"title", "price"}, {"title", "author"}, {"title"}});
  auto result = f.matcher.Match(f.AllSources(), Options(0.75));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const MatchResult& m = result.ValueOrDie();
  ASSERT_TRUE(m.feasible);
  // One GA: the three "title" attributes. "price"/"author" are dissimilar
  // singletons and get dropped.
  ASSERT_EQ(m.schema.size(), 1u);
  EXPECT_EQ(m.schema.ga(0).size(), 3u);
  EXPECT_DOUBLE_EQ(m.quality, 1.0);
}

TEST(MatcherTest, EmptySubsetYieldsEmptyFeasibleSchema) {
  MatchFixture f({{"title"}});
  auto result = f.matcher.Match({}, Options(0.75));
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.ValueOrDie().feasible);
  EXPECT_TRUE(result.ValueOrDie().schema.empty());
  EXPECT_DOUBLE_EQ(result.ValueOrDie().quality, 0.0);
}

TEST(MatcherTest, NoMatchesBelowTheta) {
  MatchFixture f({{"alpha"}, {"omega"}, {"zebra"}});
  auto result = f.matcher.Match(f.AllSources(), Options(0.75));
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.ValueOrDie().feasible);  // no constraints to violate
  EXPECT_TRUE(result.ValueOrDie().schema.empty());
}

TEST(MatcherTest, ThetaControlsMerging) {
  // jaccard3("keyword", "keywords") = 5/6 ≈ 0.833.
  MatchFixture f({{"keyword"}, {"keywords"}});
  auto strict = f.matcher.Match(f.AllSources(), Options(0.9));
  ASSERT_TRUE(strict.ok());
  EXPECT_TRUE(strict.ValueOrDie().schema.empty());

  auto loose = f.matcher.Match(f.AllSources(), Options(0.8));
  ASSERT_TRUE(loose.ok());
  ASSERT_EQ(loose.ValueOrDie().schema.size(), 1u);
  EXPECT_NEAR(loose.ValueOrDie().quality, 5.0 / 6.0, 1e-6);
}

TEST(MatcherTest, PerGaQualityIsAtLeastTheta) {
  MatchFixture f({{"keyword", "title"},
                  {"keywords", "title"},
                  {"keyword", "price range"},
                  {"price range"}});
  auto result = f.matcher.Match(f.AllSources(), Options(0.75));
  ASSERT_TRUE(result.ok());
  const MatchResult& m = result.ValueOrDie();
  ASSERT_FALSE(m.schema.empty());
  for (double q : m.ga_quality) EXPECT_GE(q, 0.75);
}

TEST(MatcherTest, ValidGasOnlyOneAttributePerSource) {
  // Source 0 has two near-identical attributes; they must never land in
  // the same GA (Definition 1).
  MatchFixture f({{"keyword", "keywords"}, {"keyword"}, {"keywords"}});
  auto result = f.matcher.Match(f.AllSources(), Options(0.75));
  ASSERT_TRUE(result.ok());
  const MatchResult& m = result.ValueOrDie();
  EXPECT_TRUE(m.schema.IsWellFormed());
  for (const GlobalAttribute& ga : m.schema.gas()) {
    EXPECT_TRUE(ga.IsValid());
  }
}

TEST(MatcherTest, SubsetRestrictsClustering) {
  MatchFixture f({{"title"}, {"title"}, {"title"}});
  auto result = f.matcher.Match({0, 2}, Options(0.75));
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result.ValueOrDie().schema.size(), 1u);
  EXPECT_EQ(result.ValueOrDie().schema.ga(0).size(), 2u);
  // Source 1's attribute must not appear.
  for (const AttributeRef& ref : result.ValueOrDie().schema.ga(0).members()) {
    EXPECT_NE(ref.source_id, 1u);
  }
}

// ------------------------------------------------------ source constraints --

TEST(MatcherTest, SourceConstraintSatisfiedWhenCovered) {
  MatchFixture f({{"title"}, {"title"}, {"zebra"}});
  auto result = f.matcher.Match(f.AllSources(), Options(0.75), {0, 1},
                                MediatedSchema());
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.ValueOrDie().feasible);
}

TEST(MatcherTest, SourceConstraintViolatedWhenUncovered) {
  // Source 2's only attribute matches nothing, so no GA touches it; a
  // source constraint on it makes the matching infeasible (NULL return of
  // Algorithm 1).
  MatchFixture f({{"title"}, {"title"}, {"zebra"}});
  auto result = f.matcher.Match(f.AllSources(), Options(0.75), {2},
                                MediatedSchema());
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result.ValueOrDie().feasible);
  EXPECT_DOUBLE_EQ(result.ValueOrDie().quality, 0.0);
  EXPECT_TRUE(result.ValueOrDie().schema.empty());
}

TEST(MatcherTest, ConstraintOutsideSubsetIsAnError) {
  MatchFixture f({{"title"}, {"title"}});
  auto result =
      f.matcher.Match({0}, Options(0.75), {1}, MediatedSchema());
  EXPECT_FALSE(result.ok());
}

// ---------------------------------------------------------- GA constraints --

TEST(MatcherTest, GaConstraintBridgesDissimilarAttributes) {
  // The Figure 3 scenario: "f name" and "prenom" share no 3-grams, but the
  // user knows they are the same concept. The GA constraint keeps them
  // together AND lets similar attributes join via either endpoint.
  MatchFixture f({{"f name"},       // 0
                  {"prenom"},       // 1
                  {"f names"},      // 2: similar to "f name"
                  {"prenoms"}});    // 3: similar to "prenom"

  // Without the constraint: two separate clusters at best.
  auto unconstrained = f.matcher.Match(f.AllSources(), Options(0.6));
  ASSERT_TRUE(unconstrained.ok());
  for (const GlobalAttribute& ga : unconstrained.ValueOrDie().schema.gas()) {
    EXPECT_LE(ga.size(), 2u);
  }

  // With the constraint: one bridged GA containing all four.
  MediatedSchema constraints;
  constraints.Add(
      GlobalAttribute({AttributeRef(0, 0), AttributeRef(1, 0)}));
  auto result =
      f.matcher.Match(f.AllSources(), Options(0.6), {}, constraints);
  ASSERT_TRUE(result.ok());
  const MatchResult& m = result.ValueOrDie();
  ASSERT_TRUE(m.feasible);
  ASSERT_EQ(m.schema.size(), 1u);
  EXPECT_EQ(m.schema.ga(0).size(), 4u);
  EXPECT_TRUE(m.schema.Subsumes(constraints));  // G ⊑ M
}

TEST(MatcherTest, GaConstraintSurvivesEvenWithLowQuality) {
  MatchFixture f({{"apple"}, {"zebra"}});
  MediatedSchema constraints;
  constraints.Add(
      GlobalAttribute({AttributeRef(0, 0), AttributeRef(1, 0)}));
  auto result =
      f.matcher.Match(f.AllSources(), Options(0.75), {}, constraints);
  ASSERT_TRUE(result.ok());
  const MatchResult& m = result.ValueOrDie();
  ASSERT_TRUE(m.feasible);
  ASSERT_EQ(m.schema.size(), 1u);
  // The constraint GA's quality may be below theta — that is allowed for
  // g ∈ G (§2.5).
  EXPECT_LT(m.ga_quality[0], 0.75);
}

TEST(MatcherTest, SingletonGaConstraintKept) {
  MatchFixture f({{"apple"}, {"zebra"}});
  MediatedSchema constraints;
  constraints.Add(GlobalAttribute({AttributeRef(0, 0)}));
  auto result =
      f.matcher.Match(f.AllSources(), Options(0.75), {}, constraints);
  ASSERT_TRUE(result.ok());
  ASSERT_TRUE(result.ValueOrDie().feasible);
  ASSERT_EQ(result.ValueOrDie().schema.size(), 1u);
  EXPECT_EQ(result.ValueOrDie().schema.ga(0).size(), 1u);
}

TEST(MatcherTest, GaConstraintImplicitSourceCoverage) {
  // GA constraints count as coverage for validity-on-C: constraint sources
  // whose only attribute sits in the constraint GA are covered by it.
  MatchFixture f({{"apple"}, {"zebra"}, {"title"}, {"title"}});
  MediatedSchema constraints;
  constraints.Add(
      GlobalAttribute({AttributeRef(0, 0), AttributeRef(1, 0)}));
  auto result =
      f.matcher.Match(f.AllSources(), Options(0.75), {0, 1}, constraints);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.ValueOrDie().feasible);
}

TEST(MatcherTest, MalformedGaConstraintRejected) {
  MatchFixture f({{"a", "b"}, {"c"}});
  MediatedSchema constraints;
  constraints.Add(GlobalAttribute({AttributeRef(0, 0), AttributeRef(0, 1)}));
  auto result =
      f.matcher.Match(f.AllSources(), Options(0.75), {}, constraints);
  EXPECT_FALSE(result.ok());
}

TEST(MatcherTest, GaConstraintReferencingSourceOutsideSRejected) {
  MatchFixture f({{"a"}, {"b"}});
  MediatedSchema constraints;
  constraints.Add(GlobalAttribute({AttributeRef(1, 0)}));
  auto result = f.matcher.Match({0}, Options(0.75), {}, constraints);
  EXPECT_FALSE(result.ok());
}

// -------------------------------------------------------------------- beta --

TEST(MatcherTest, BetaFiltersSmallGas) {
  MatchFixture f({{"title", "keyword"},
                  {"title", "keyword"},
                  {"title"},
                  {"title"}});
  // title appears in 4 sources, keyword in 2.
  auto beta2 = f.matcher.Match(f.AllSources(), Options(0.75, 2));
  ASSERT_TRUE(beta2.ok());
  EXPECT_EQ(beta2.ValueOrDie().schema.size(), 2u);

  auto beta3 = f.matcher.Match(f.AllSources(), Options(0.75, 3));
  ASSERT_TRUE(beta3.ok());
  ASSERT_EQ(beta3.ValueOrDie().schema.size(), 1u);
  EXPECT_EQ(beta3.ValueOrDie().schema.ga(0).size(), 4u);
}

TEST(MatcherTest, BetaDoesNotApplyToConstraintGas) {
  MatchFixture f({{"apple"}, {"zebra"}});
  MediatedSchema constraints;
  constraints.Add(
      GlobalAttribute({AttributeRef(0, 0), AttributeRef(1, 0)}));
  auto result =
      f.matcher.Match(f.AllSources(), Options(0.75, 5), {}, constraints);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.ValueOrDie().schema.size(), 1u);  // survives β = 5
}

// -------------------------------------------------------- input validation --

TEST(MatcherTest, RejectsBadInputs) {
  MatchFixture f({{"a"}, {"b"}});
  EXPECT_FALSE(f.matcher.Match({0, 0}, Options(0.75)).ok());  // duplicate
  EXPECT_FALSE(f.matcher.Match({9}, Options(0.75)).ok());     // out of range
  EXPECT_FALSE(f.matcher.Match({0}, Options(1.5)).ok());      // bad theta
  EXPECT_FALSE(f.matcher.Match({0}, Options(-0.1)).ok());
}

// -------------------------------------------- chained merges (transitivity) --

TEST(MatcherTest, ChainedMergesAcrossIterations) {
  // "keyword" ~ "keywords" ~ "key words"? Build a chain where the merged
  // cluster must merge again in a later iteration: max-linkage means the
  // cluster {keyword, keywords} still has similarity 5/6 to another
  // "keyword" attribute.
  MatchFixture f({{"keyword"}, {"keywords"}, {"keyword"}, {"keywords"}});
  auto result = f.matcher.Match(f.AllSources(), Options(0.8));
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result.ValueOrDie().schema.size(), 1u);
  EXPECT_EQ(result.ValueOrDie().schema.ga(0).size(), 4u);
}

TEST(MatcherTest, GreedyPrefersHighestSimilarityFirst) {
  // Sources 0 and 1 both offer near-matches for source 2's "keyword";
  // exact match (sim 1.0) must win the seat because pairs pop best-first,
  // and the loser can still join the cluster later via max-linkage only if
  // its similarity to *any* member clears θ.
  MatchFixture f({{"keyword"}, {"keywordz"}, {"keyword"}});
  auto result = f.matcher.Match(f.AllSources(), Options(0.8));
  ASSERT_TRUE(result.ok());
  const MatchResult& m = result.ValueOrDie();
  ASSERT_EQ(m.schema.size(), 1u);
  // All three end up together: 0-2 merge at 1.0, then 1 joins at 5/6.
  EXPECT_EQ(m.schema.ga(0).size(), 3u);
}

// ---------------------------------------------------------------- linkage --

TEST(MatcherTest, MaxLinkageEnablesBridgingAverageDoesNot) {
  // The DESIGN.md §5.1 ablation as a unit test: a GA constraint bridging
  // "f name" and "prenom" grows to 4 attributes under max linkage but
  // freezes at 2 under average linkage (the dissimilar member drags the
  // mean below θ).
  MatchFixture f({{"f name"}, {"prenom"}, {"f names"}, {"prenoms"}});
  MediatedSchema constraints;
  constraints.Add(GlobalAttribute({AttributeRef(0, 0), AttributeRef(1, 0)}));

  MatchOptions max_options = Options(0.6);
  max_options.linkage = ClusterLinkage::kMax;
  auto max_result =
      f.matcher.Match(f.AllSources(), max_options, {}, constraints);
  ASSERT_TRUE(max_result.ok());
  ASSERT_EQ(max_result.ValueOrDie().schema.size(), 1u);
  EXPECT_EQ(max_result.ValueOrDie().schema.ga(0).size(), 4u);

  MatchOptions avg_options = Options(0.6);
  avg_options.linkage = ClusterLinkage::kAverage;
  auto avg_result =
      f.matcher.Match(f.AllSources(), avg_options, {}, constraints);
  ASSERT_TRUE(avg_result.ok());
  // The constraint survives but cannot grow past its dissimilar pair...
  size_t bridged_size = 0;
  for (const GlobalAttribute& ga : avg_result.ValueOrDie().schema.gas()) {
    if (ga.Contains(AttributeRef(0, 0))) bridged_size = ga.size();
  }
  EXPECT_EQ(bridged_size, 2u);
}

TEST(MatcherTest, LinkagesAgreeOnSingletonClusters) {
  // With only singleton clusters, max and average linkage coincide, so the
  // first merge decisions are identical.
  MatchFixture f({{"keyword"}, {"keywords"}});
  MatchOptions max_options = Options(0.8);
  MatchOptions avg_options = Options(0.8);
  avg_options.linkage = ClusterLinkage::kAverage;
  auto a = f.matcher.Match(f.AllSources(), max_options);
  auto b = f.matcher.Match(f.AllSources(), avg_options);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a.ValueOrDie().schema, b.ValueOrDie().schema);
}

// ---------------------------------------------------------- naive baseline --

TEST(NaiveMatcherTest, FindsComponentsOnCleanInstance) {
  MatchFixture f({{"title"}, {"title"}, {"keyword"}, {"keyword"}});
  std::vector<uint32_t> all = f.AllSources();
  NaiveMatchResult naive =
      NaiveComponentsMatch(f.universe, f.matrix, all, 0.75);
  EXPECT_EQ(naive.schema.size(), 2u);
  EXPECT_EQ(naive.invalid_gas, 0u);
  EXPECT_DOUBLE_EQ(naive.quality, 1.0);
  // On conflict-free instances the naive components equal Algorithm 1's
  // output (as sets of GAs).
  auto alg1 = f.matcher.Match(all, Options(0.75));
  ASSERT_TRUE(alg1.ok());
  EXPECT_EQ(naive.schema.size(), alg1.ValueOrDie().schema.size());
}

TEST(NaiveMatcherTest, ProducesInvalidGasWhereAlgorithm1CannotBe) {
  // Source 0 holds both "keyword" and "keywords": the closure glues them
  // through the other sources' attributes, producing a Definition 1
  // violation; Algorithm 1 structurally cannot.
  MatchFixture f({{"keyword", "keywords"}, {"keyword"}, {"keywords"}});
  std::vector<uint32_t> all = f.AllSources();

  NaiveMatchResult naive =
      NaiveComponentsMatch(f.universe, f.matrix, all, 0.8);
  EXPECT_GE(naive.invalid_gas, 1u);
  EXPECT_FALSE(naive.schema.IsWellFormed());

  auto alg1 = f.matcher.Match(all, Options(0.8));
  ASSERT_TRUE(alg1.ok());
  EXPECT_TRUE(alg1.ValueOrDie().schema.IsWellFormed());
  for (const GlobalAttribute& ga : alg1.ValueOrDie().schema.gas()) {
    EXPECT_TRUE(ga.IsValid());
  }
}

TEST(NaiveMatcherTest, SubsetRestriction) {
  MatchFixture f({{"title"}, {"title"}, {"title"}});
  NaiveMatchResult naive =
      NaiveComponentsMatch(f.universe, f.matrix, {0, 2}, 0.75);
  ASSERT_EQ(naive.schema.size(), 1u);
  EXPECT_EQ(naive.schema.ga(0).size(), 2u);
}

TEST(NaiveMatcherTest, EmptyAndNoMatchCases) {
  MatchFixture f({{"alpha"}, {"omega"}});
  NaiveMatchResult none =
      NaiveComponentsMatch(f.universe, f.matrix, f.AllSources(), 0.75);
  EXPECT_TRUE(none.schema.empty());
  EXPECT_DOUBLE_EQ(none.quality, 0.0);
  NaiveMatchResult empty =
      NaiveComponentsMatch(f.universe, f.matrix, {}, 0.75);
  EXPECT_TRUE(empty.schema.empty());
}

// ------------------------------------------------------------- properties --

class MatcherPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MatcherPropertyTest, RandomUniverseInvariants) {
  // Random universes built from a small attribute-name pool (to force both
  // matches and near-misses). Invariants:
  //  (1) output schema is well-formed;
  //  (2) every non-constraint GA has >= 2 attributes and quality >= θ;
  //  (3) overall quality equals the mean of per-GA qualities;
  //  (4) determinism: same inputs -> same output.
  const uint64_t seed = GetParam();
  Rng rng(seed);
  const std::vector<std::string> pool = {
      "title",   "titles",   "book title", "author", "authors",
      "keyword", "keywords", "isbn",       "price",  "price range",
      "publisher", "year",   "format",     "zebra",  "quux"};

  std::vector<std::vector<std::string>> schemas;
  const size_t num_sources = 4 + rng.Uniform(8);
  for (size_t i = 0; i < num_sources; ++i) {
    std::vector<std::string> schema;
    const size_t num_attrs = 1 + rng.Uniform(4);
    std::vector<size_t> picks = rng.SampleWithoutReplacement(pool.size(),
                                                             num_attrs);
    for (size_t p : picks) schema.push_back(pool[p]);
    schemas.push_back(std::move(schema));
  }

  MatchFixture f(schemas);
  const double theta = 0.6 + 0.3 * rng.UniformDouble();
  auto result = f.matcher.Match(f.AllSources(), Options(theta));
  ASSERT_TRUE(result.ok());
  const MatchResult& m = result.ValueOrDie();
  ASSERT_TRUE(m.feasible);

  EXPECT_TRUE(m.schema.IsWellFormed());
  ASSERT_EQ(m.ga_quality.size(), m.schema.size());
  double sum = 0.0;
  for (size_t i = 0; i < m.schema.size(); ++i) {
    EXPECT_GE(m.schema.ga(i).size(), 2u);
    EXPECT_GE(m.ga_quality[i], theta);
    EXPECT_LE(m.ga_quality[i], 1.0);
    sum += m.ga_quality[i];
  }
  if (!m.schema.empty()) {
    EXPECT_NEAR(m.quality, sum / static_cast<double>(m.schema.size()), 1e-9);
  } else {
    EXPECT_DOUBLE_EQ(m.quality, 0.0);
  }

  // Determinism.
  auto again = f.matcher.Match(f.AllSources(), Options(theta));
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.ValueOrDie().schema, m.schema);
  EXPECT_DOUBLE_EQ(again.ValueOrDie().quality, m.quality);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MatcherPropertyTest,
                         ::testing::Range<uint64_t>(1, 21));

// ------------------------------------------------------ reference oracle --

/// Algorithm 1 written the obvious way: every pass scores *every* live
/// cluster pair through At(), keeps the pairs at or above θ in a std::map,
/// and pops them from a std::priority_queue. Matcher::Match must agree with
/// it field for field.
///
/// With `rows` set, only the attribute pairs listed there (in either
/// direction) can nominate a cluster pair or count toward its max linkage —
/// the semantics of a sparse index whose capped rows omit some pairs.
struct RefCluster {
  std::vector<size_t> attrs;      // global attribute indexes
  std::vector<uint32_t> sources;  // sorted
  bool keep = false;
  bool merged = false;
  bool merge_cand = false;
  bool newly_merged = false;
  bool alive = true;
};

struct RefEntry {
  double similarity;
  uint32_t c1;
  uint32_t c2;
  bool operator<(const RefEntry& o) const {
    if (similarity != o.similarity) return similarity < o.similarity;
    if (c1 != o.c1) return c1 > o.c1;
    return c2 > o.c2;
  }
};

double RefQuality(const SimilaritySource& sim, const RefCluster& c) {
  double best = 0.0;
  for (size_t i = 0; i < c.attrs.size(); ++i) {
    for (size_t j = i + 1; j < c.attrs.size(); ++j) {
      best = std::max(best, sim.At(c.attrs[i], c.attrs[j]));
    }
  }
  return best;
}

MatchResult ReferenceMatch(const Universe& u, const SimilaritySource& sim,
                           const std::vector<uint32_t>& s,
                           const MatchOptions& options,
                           const std::vector<uint32_t>& source_constraints,
                           const MediatedSchema& ga_constraints) {
  std::vector<RefCluster> clusters;
  std::vector<size_t> constrained;
  for (const GlobalAttribute& g : ga_constraints.gas()) {
    RefCluster c;
    c.keep = true;
    for (const AttributeRef& ref : g.members()) {
      c.attrs.push_back(u.GlobalAttrIndex(ref));
      c.sources.push_back(ref.source_id);
      constrained.push_back(u.GlobalAttrIndex(ref));
    }
    std::sort(c.sources.begin(), c.sources.end());
    clusters.push_back(c);
  }
  for (uint32_t sid : s) {
    for (uint32_t a = 0; a < u.source(sid).attribute_count(); ++a) {
      const size_t gidx = u.GlobalAttrIndex(AttributeRef(sid, a));
      if (std::count(constrained.begin(), constrained.end(), gidx)) continue;
      RefCluster c;
      c.attrs = {gidx};
      c.sources = {sid};
      clusters.push_back(c);
    }
  }
  std::vector<RefCluster> frozen;
  bool done = false;
  while (!done) {
    done = true;
    for (RefCluster& c : clusters) {
      c.merged = c.merge_cand = c.newly_merged = false;
    }
    std::map<std::pair<uint32_t, uint32_t>, double> scored;
    for (uint32_t i = 0; i < clusters.size(); ++i) {
      for (uint32_t j = i + 1; j < clusters.size(); ++j) {
        double sum = 0.0;
        double best = 0.0;
        for (size_t a : clusters[i].attrs) {
          for (size_t b : clusters[j].attrs) {
            sum += sim.At(a, b);
            best = std::max(best, sim.At(a, b));
          }
        }
        const double n = static_cast<double>(clusters[i].attrs.size() *
                                              clusters[j].attrs.size());
        scored[{i, j}] =
            options.linkage == ClusterLinkage::kMax ? best : sum / n;
      }
    }
    std::priority_queue<RefEntry> heap;
    for (const auto& [pair, score] : scored) {
      if (score >= options.theta) {
        heap.push(RefEntry{score, pair.first, pair.second});
      }
    }
    while (!heap.empty()) {
      const RefEntry top = heap.top();
      heap.pop();
      RefCluster& c1 = clusters[top.c1];
      RefCluster& c2 = clusters[top.c2];
      if (!c1.merged && !c2.merged) {
        std::vector<uint32_t> both;
        std::set_intersection(c1.sources.begin(), c1.sources.end(),
                              c2.sources.begin(), c2.sources.end(),
                              std::back_inserter(both));
        if (!both.empty()) continue;
        RefCluster m;
        m.keep = c1.keep || c2.keep;
        m.newly_merged = true;
        m.attrs = c1.attrs;
        m.attrs.insert(m.attrs.end(), c2.attrs.begin(), c2.attrs.end());
        std::merge(c1.sources.begin(), c1.sources.end(), c2.sources.begin(),
                   c2.sources.end(), std::back_inserter(m.sources));
        c1.merged = c2.merged = true;
        c1.alive = c2.alive = false;
        clusters.push_back(m);
        done = false;
      } else if (c1.merged != c2.merged) {
        (c1.merged ? c2 : c1).merge_cand = true;
        done = false;
      }
    }
    std::vector<RefCluster> live;
    for (RefCluster& c : clusters) {
      if (!c.alive) continue;
      if (!c.newly_merged && !c.merge_cand && !c.keep) {
        if (c.attrs.size() >= 2) frozen.push_back(c);
        continue;
      }
      live.push_back(c);
    }
    clusters = live;
  }
  for (const RefCluster& c : clusters) {
    if (c.keep || c.attrs.size() >= 2) frozen.push_back(c);
  }
  MatchResult result;
  for (const RefCluster& c : frozen) {
    if (!c.keep && c.attrs.size() < std::max<size_t>(options.beta, 2)) {
      continue;
    }
    std::vector<AttributeRef> members;
    for (size_t gidx : c.attrs) members.push_back(u.RefFromGlobalIndex(gidx));
    result.ga_quality.push_back(RefQuality(sim, c));
    result.schema.Add(GlobalAttribute(std::move(members)));
  }
  if (!result.schema.IsValidOn(source_constraints)) return MatchResult{};
  result.feasible = true;
  if (!result.schema.empty()) {
    double sum = 0.0;
    for (double q : result.ga_quality) sum += q;
    result.quality = sum / static_cast<double>(result.ga_quality.size());
  }
  return result;
}

void ExpectSameMatch(const MatchResult& got, const MatchResult& want) {
  EXPECT_EQ(got.feasible, want.feasible);
  EXPECT_EQ(got.schema, want.schema);
  ASSERT_EQ(got.schema.size(), want.schema.size());
  for (size_t g = 0; g < got.schema.size(); ++g) {
    EXPECT_EQ(got.schema.ga(g).members(), want.schema.ga(g).members());
  }
  ASSERT_EQ(got.ga_quality.size(), want.ga_quality.size());
  for (size_t g = 0; g < got.ga_quality.size(); ++g) {
    EXPECT_EQ(std::bit_cast<uint64_t>(got.ga_quality[g]),
              std::bit_cast<uint64_t>(want.ga_quality[g]));
  }
  EXPECT_EQ(std::bit_cast<uint64_t>(got.quality),
            std::bit_cast<uint64_t>(want.quality));
}

class MatcherOracleTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MatcherOracleTest, AgreesWithExhaustiveReferenceOnDenseAndSparse) {
  const uint64_t seed = GetParam();
  Rng rng(seed);
  GeneratorConfig config;
  config.seed = seed;
  config.num_sources = 8 + rng.Uniform(23);
  config.attach_tuples = false;
  auto generated = GenerateUniverse(config);
  ASSERT_TRUE(generated.ok());
  Universe u = std::move(generated.ValueOrDie().universe);
  // Some universes carry a retired source, whose pairs all score 0.
  if (rng.Bernoulli(0.3)) {
    u.RetireSource(static_cast<uint32_t>(rng.Uniform(u.size())));
  }
  NGramJaccard measure(3);
  SimilarityMatrix dense(u, measure);
  SparseSimilarityIndex sparse(u, measure);  // floor 0.5

  for (int trial = 0; trial < 4; ++trial) {
    std::vector<uint32_t> s;
    const size_t m = 2 + rng.Uniform(std::min<size_t>(u.size() - 1, 14));
    for (size_t p : rng.SampleWithoutReplacement(u.size(), m)) {
      s.push_back(static_cast<uint32_t>(p));
    }
    MatchOptions options;
    options.theta = rng.UniformDouble(0.5, 0.95);
    options.beta = 2 + rng.Uniform(2);
    options.linkage = rng.Bernoulli(0.5) ? ClusterLinkage::kMax
                                         : ClusterLinkage::kAverage;

    // Up to two disjoint valid GA constraints over S, one attribute per
    // chosen source; and up to three source constraints from S, which may
    // be left uncovered (infeasible).
    MediatedSchema g;
    std::vector<bool> used(u.size(), false);
    const size_t num_gas = rng.Uniform(3);
    for (size_t k = 0; k < num_gas; ++k) {
      std::vector<AttributeRef> members;
      for (size_t p : rng.SampleWithoutReplacement(
               s.size(), 1 + rng.Uniform(std::min<size_t>(s.size(), 3)))) {
        const uint32_t sid = s[p];
        const uint32_t count = u.source(sid).attribute_count();
        if (used[sid] || count == 0) continue;
        used[sid] = true;
        members.emplace_back(sid,
                             static_cast<uint32_t>(rng.Uniform(count)));
      }
      if (!members.empty()) g.Add(GlobalAttribute(std::move(members)));
    }
    std::vector<uint32_t> c;
    for (size_t p : rng.SampleWithoutReplacement(
             s.size(), rng.Uniform(std::min<size_t>(s.size(), 4)))) {
      c.push_back(s[p]);
    }

    for (const SimilaritySource* sim :
         std::vector<const SimilaritySource*>{&dense, &sparse}) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " trial " +
                   std::to_string(trial) +
                   (sim == &dense ? " dense" : " sparse"));
      Matcher matcher(u, *sim);
      auto got = matcher.Match(s, options, c, g);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      ExpectSameMatch(got.ValueOrDie(),
                      ReferenceMatch(u, *sim, s, options, c, g));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MatcherOracleTest,
                         ::testing::Range<uint64_t>(1, 49));

// ----------------------------------------------- similarity access guard --

/// Forwards to a real source, counting how Match reads it.
class CountingSource : public SimilaritySource {
 public:
  explicit CountingSource(const SimilaritySource& inner) : inner_(inner) {}

  double At(size_t i, size_t j) const override { return inner_.At(i, j); }
  size_t attribute_count() const override {
    return inner_.attribute_count();
  }
  void ForEachNeighborAtLeast(size_t i, double theta,
                              const NeighborFn& fn) const override {
    ++neighbor_calls;
    inner_.ForEachNeighborAtLeast(i, theta, fn);
  }
  void SubsetEdgesAtLeast(const std::vector<uint32_t>& attrs, double theta,
                          std::vector<SubsetEdge>& edges) const override {
    subset_calls.push_back(attrs);
    inner_.SubsetEdgesAtLeast(attrs, theta, edges);
  }
  double neighbor_floor() const override { return inner_.neighbor_floor(); }
  void Rebuild(const Universe&, const SimilarityMeasure&,
               unsigned) override {}
  void ApplyChurn(const Universe&, const SimilarityMeasure&,
                  const std::vector<uint32_t>&, unsigned) override {}
  std::unique_ptr<SimilaritySource> CloneSource() const override {
    return inner_.CloneSource();
  }
  size_t MemoryBytes() const override { return inner_.MemoryBytes(); }
  size_t last_measure_calls() const override {
    return inner_.last_measure_calls();
  }

  mutable size_t neighbor_calls = 0;
  mutable std::vector<std::vector<uint32_t>> subset_calls;

 private:
  const SimilaritySource& inner_;
};

TEST(MatcherAccessTest, OneSubsetEnumerationAndNoRowScans) {
  MatchFixture f({{"title", "price"},
                  {"book title", "author"},
                  {"title", "isbn"},
                  {"author name"},
                  {"titles", "price range", "year"}});
  CountingSource counting(f.matrix);
  Matcher matcher(f.universe, counting);
  // S out of order, with a GA constraint and a source constraint, so every
  // code path of Match runs.
  MediatedSchema g;
  g.Add(GlobalAttribute({AttributeRef(1, 1), AttributeRef(3, 0)}));
  auto result = matcher.Match({4, 1, 0, 3}, Options(0.6), {1}, g);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result.ValueOrDie().feasible);
  EXPECT_EQ(counting.neighbor_calls, 0u);
  ASSERT_EQ(counting.subset_calls.size(), 1u);
  std::vector<uint32_t> want;
  for (uint32_t sid : {0u, 1u, 3u, 4u}) {
    for (uint32_t a = 0; a < f.universe.source(sid).attribute_count(); ++a) {
      want.push_back(static_cast<uint32_t>(
          f.universe.GlobalAttrIndex(AttributeRef(sid, a))));
    }
  }
  EXPECT_EQ(counting.subset_calls[0], want);

  // The naive baseline reads the source the same way.
  counting.subset_calls.clear();
  NaiveComponentsMatch(f.universe, counting, {4, 1, 0, 3}, 0.6);
  EXPECT_EQ(counting.neighbor_calls, 0u);
  ASSERT_EQ(counting.subset_calls.size(), 1u);
  EXPECT_EQ(counting.subset_calls[0], want);
}

}  // namespace
}  // namespace mube
