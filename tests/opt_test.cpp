// Tests for src/opt: problem validation, solution evaluation, neighborhood
// machinery, the exhaustive oracle, and all four metaheuristics (each must
// respect constraints, be deterministic under a fixed seed, and find the
// true optimum of a small instance).

#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "common/random.h"
#include "opt/exhaustive.h"
#include "opt/greedy_baseline.h"
#include "opt/optimizer.h"
#include "opt/problem.h"
#include "opt/search_util.h"
#include "qef/data_qefs.h"
#include "qef/match_qef.h"
#include "schema/universe.h"
#include "sketch/signature_cache.h"
#include "text/similarity.h"
#include "text/similarity_matrix.h"

namespace mube {
namespace {

/// A 10-source instance with a clear structure: sources 0-4 share the
/// "title" attribute (good matching) and have big disjoint tuple sets;
/// sources 5-9 share only "venue" and have tiny tuple sets. The optimum
/// subset of any size <= 5 consists solely of 0-4 sources; constraining a
/// venue source forces the solver to pull in a second venue source so the
/// constraint source is covered by some GA (validity on C).
class OptFixture {
 public:
  OptFixture() {
    for (int i = 0; i < 10; ++i) {
      std::string name = "s";
      name += std::to_string(i);
      Source s(0, name);
      if (i < 5) {
        s.AddAttribute(Attribute("title"));
        s.AddAttribute(Attribute("junk" + std::to_string(i) + "x"));
      } else {
        s.AddAttribute(Attribute("venue"));
        s.AddAttribute(Attribute("garble" + std::to_string(i * 7)));
      }
      std::vector<uint64_t> tuples;
      const uint64_t base = static_cast<uint64_t>(i) * 100'000;
      const uint64_t count = (i < 5) ? 50'000 : 2'000;
      for (uint64_t t = 0; t < count; ++t) tuples.push_back(base + t);
      s.SetTuples(std::move(tuples));
      universe_.AddSource(std::move(s));
    }
    matrix_ = std::make_unique<SimilarityMatrix>(universe_, measure_);
    matcher_ = std::make_unique<Matcher>(universe_, *matrix_);
    cache_ = std::make_unique<SignatureCache>(universe_, PcsaConfig());
  }

  /// Builds a problem over match (weight .5) and cardinality (weight .5).
  Problem MakeProblem(size_t m, std::vector<uint32_t> constraints = {},
                      MediatedSchema ga_constraints = MediatedSchema()) {
    MatchOptions options;
    options.theta = 0.75;
    match_qef_ = std::make_unique<MatchQualityQef>(
        *matcher_, options, constraints, std::move(ga_constraints));
    qefs_ = std::make_unique<QefSet>();
    // Raw pointer alias is safe: qefs_ owns the object.
    MatchQualityQef* match_ptr = match_qef_.get();
    EXPECT_TRUE(qefs_->Add(std::move(match_qef_), 0.5).ok());
    EXPECT_TRUE(
        qefs_->Add(std::make_unique<CardQef>(universe_), 0.5).ok());

    Problem problem;
    problem.universe = &universe_;
    problem.qefs = qefs_.get();
    problem.match_qef = match_ptr;
    problem.effective_constraints = std::move(constraints);
    problem.max_sources = m;
    return problem;
  }

  Universe universe_;
  NGramJaccard measure_{3};
  std::unique_ptr<SimilarityMatrix> matrix_;
  std::unique_ptr<Matcher> matcher_;
  std::unique_ptr<SignatureCache> cache_;
  std::unique_ptr<MatchQualityQef> match_qef_;
  std::unique_ptr<QefSet> qefs_;
};

// ---------------------------------------------------------------- Problem --

TEST(ProblemTest, ValidateCatchesErrors) {
  OptFixture f;
  Problem ok = f.MakeProblem(3);
  EXPECT_TRUE(ok.Validate().ok());

  Problem no_universe = ok;
  no_universe.universe = nullptr;
  EXPECT_FALSE(no_universe.Validate().ok());

  Problem zero_m = ok;
  zero_m.max_sources = 0;
  EXPECT_FALSE(zero_m.Validate().ok());

  Problem bad_constraint = ok;
  bad_constraint.effective_constraints = {99};
  EXPECT_FALSE(bad_constraint.Validate().ok());

  Problem unsorted = ok;
  unsorted.effective_constraints = {3, 1};
  EXPECT_FALSE(unsorted.Validate().ok());

  Problem too_many = f.MakeProblem(1, {0, 1});
  EXPECT_TRUE(too_many.Validate().IsInfeasible());
}

TEST(ProblemTest, TargetSizeClampsToUniverse) {
  OptFixture f;
  EXPECT_EQ(f.MakeProblem(3).TargetSize(), 3u);
  EXPECT_EQ(f.MakeProblem(50).TargetSize(), 10u);
}

// ----------------------------------------------------------- EvaluateSolution

TEST(EvaluateSolutionTest, FeasibleSolutionScored) {
  OptFixture f;
  Problem problem = f.MakeProblem(3);
  SolutionEval eval = EvaluateSolution(problem, {2, 0, 1});
  EXPECT_TRUE(eval.feasible);
  EXPECT_EQ(eval.sources, (std::vector<uint32_t>{0, 1, 2}));  // sorted
  EXPECT_GT(eval.overall, 0.0);
  ASSERT_EQ(eval.qef_values.size(), 2u);
  EXPECT_DOUBLE_EQ(eval.qef_values[0], 1.0);  // perfect title matching
  EXPECT_EQ(eval.schema.size(), 1u);
  // Q = .5*F1 + .5*Card.
  EXPECT_NEAR(eval.overall,
              0.5 * eval.qef_values[0] + 0.5 * eval.qef_values[1], 1e-12);
}

TEST(EvaluateSolutionTest, OversizeIsInfeasible) {
  OptFixture f;
  Problem problem = f.MakeProblem(2);
  SolutionEval eval = EvaluateSolution(problem, {0, 1, 2});
  EXPECT_FALSE(eval.feasible);
  EXPECT_DOUBLE_EQ(eval.overall, 0.0);
}

TEST(EvaluateSolutionTest, MissingConstraintIsInfeasible) {
  OptFixture f;
  Problem problem = f.MakeProblem(3, {4});
  SolutionEval eval = EvaluateSolution(problem, {0, 1, 2});
  EXPECT_FALSE(eval.feasible);
}

TEST(EvaluateSolutionTest, DuplicatesAreDeduped) {
  OptFixture f;
  Problem problem = f.MakeProblem(3);
  SolutionEval eval = EvaluateSolution(problem, {0, 0, 1});
  EXPECT_EQ(eval.sources, (std::vector<uint32_t>{0, 1}));
}

// ------------------------------------------------------------- search util --

TEST(SearchUtilTest, RandomFeasibleSubsetRespectsInvariants) {
  OptFixture f;
  Problem problem = f.MakeProblem(4, {7});
  Rng rng(5);
  for (int i = 0; i < 50; ++i) {
    auto subset = RandomFeasibleSubset(problem, &rng);
    ASSERT_TRUE(subset.ok());
    const auto& s = subset.ValueOrDie();
    EXPECT_EQ(s.size(), 4u);
    EXPECT_TRUE(std::is_sorted(s.begin(), s.end()));
    EXPECT_TRUE(std::binary_search(s.begin(), s.end(), 7u));
    std::set<uint32_t> unique(s.begin(), s.end());
    EXPECT_EQ(unique.size(), s.size());
  }
}

TEST(SearchUtilTest, SwapPreservesSizeAndConstraints) {
  OptFixture f;
  Problem problem = f.MakeProblem(4, {2});
  Rng rng(9);
  auto start = RandomFeasibleSubset(problem, &rng);
  ASSERT_TRUE(start.ok());
  std::vector<uint32_t> current = start.ValueOrDie();
  for (int i = 0; i < 200; ++i) {
    SwapMove move{};
    ASSERT_TRUE(SampleSwap(problem, current, &rng, &move));
    EXPECT_NE(move.drop, 2u);  // constraint never dropped
    EXPECT_TRUE(
        std::binary_search(current.begin(), current.end(), move.drop));
    EXPECT_FALSE(
        std::binary_search(current.begin(), current.end(), move.add));
    current = ApplySwap(current, move);
    EXPECT_EQ(current.size(), 4u);
    EXPECT_TRUE(std::is_sorted(current.begin(), current.end()));
    EXPECT_TRUE(std::binary_search(current.begin(), current.end(), 2u));
  }
}

TEST(SearchUtilTest, NoSwapWhenFullyPinned) {
  OptFixture f;
  Problem problem = f.MakeProblem(2, {0, 1});
  Rng rng(3);
  SwapMove move{};
  EXPECT_FALSE(SampleSwap(problem, {0, 1}, &rng, &move));
}

TEST(SearchUtilTest, NoSwapWhenSolutionIsWholeUniverse) {
  OptFixture f;
  Problem problem = f.MakeProblem(10);
  Rng rng(3);
  std::vector<uint32_t> all;
  for (uint32_t i = 0; i < 10; ++i) all.push_back(i);
  SwapMove move{};
  EXPECT_FALSE(SampleSwap(problem, all, &rng, &move));
}

// -------------------------------------------------------------- exhaustive --

TEST(ExhaustiveTest, FindsKnownOptimum) {
  OptFixture f;
  Problem problem = f.MakeProblem(3);
  ExhaustiveSearch search;
  auto result = search.Run(problem);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const SolutionEval& best = result.ValueOrDie();
  // Optimum: any 3 of the five title sources (all symmetric).
  for (uint32_t sid : best.sources) EXPECT_LT(sid, 5u);
  EXPECT_DOUBLE_EQ(best.qef_values[0], 1.0);
}

TEST(ExhaustiveTest, HonorsConstraints) {
  OptFixture f;
  Problem problem = f.MakeProblem(3, {9});
  ExhaustiveSearch search;
  auto result = search.Run(problem);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const SolutionEval& best = result.ValueOrDie();
  EXPECT_TRUE(
      std::binary_search(best.sources.begin(), best.sources.end(), 9u));
  // Covering source 9 requires a second venue source in S.
  int venue_sources = 0;
  for (uint32_t sid : best.sources) venue_sources += (sid >= 5) ? 1 : 0;
  EXPECT_GE(venue_sources, 2);
}

TEST(ExhaustiveTest, SafetyCapRejectsHugeInstances) {
  OptFixture f;
  Problem problem = f.MakeProblem(5);
  ExhaustiveOptions options;
  options.max_subsets = 10;  // C(10,5) = 252 > 10
  ExhaustiveSearch search(options);
  EXPECT_FALSE(search.Run(problem).ok());
}

TEST(ExhaustiveTest, FullyPinnedInstance) {
  OptFixture f;
  Problem problem = f.MakeProblem(2, {0, 1});
  ExhaustiveSearch search;
  auto result = search.Run(problem);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.ValueOrDie().sources, (std::vector<uint32_t>{0, 1}));
}

// ------------------------------------------------- metaheuristics (shared) --

class OptimizerTest : public ::testing::TestWithParam<std::string> {
 protected:
  std::unique_ptr<Optimizer> Make(uint64_t seed,
                                  size_t max_evals = 4000) {
    OptimizerOptions options;
    options.seed = seed;
    options.max_evaluations = max_evals;
    options.patience = 0;
    auto result = MakeOptimizer(GetParam(), options);
    EXPECT_TRUE(result.ok());
    return result.MoveValueUnsafe();
  }
};

TEST_P(OptimizerTest, FindsGlobalOptimumOfSmallInstance) {
  OptFixture f;
  Problem problem = f.MakeProblem(3);

  ExhaustiveSearch oracle;
  auto truth = oracle.Run(problem);
  ASSERT_TRUE(truth.ok());

  auto optimizer = Make(/*seed=*/11);
  auto result = optimizer->Run(problem);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_NEAR(result.ValueOrDie().overall, truth.ValueOrDie().overall, 1e-9)
      << GetParam() << " missed the optimum";
}

TEST_P(OptimizerTest, RespectsConstraints) {
  OptFixture f;
  Problem problem = f.MakeProblem(3, {8});
  auto optimizer = Make(/*seed=*/3);
  auto result = optimizer->Run(problem);
  ASSERT_TRUE(result.ok());
  const SolutionEval& best = result.ValueOrDie();
  EXPECT_TRUE(best.feasible);
  EXPECT_EQ(best.sources.size(), 3u);
  EXPECT_TRUE(
      std::binary_search(best.sources.begin(), best.sources.end(), 8u));
}

TEST_P(OptimizerTest, DeterministicForFixedSeed) {
  OptFixture f;
  Problem problem = f.MakeProblem(3);
  auto a = Make(42, 1500)->Run(problem);
  auto b = Make(42, 1500)->Run(problem);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a.ValueOrDie().sources, b.ValueOrDie().sources);
  EXPECT_DOUBLE_EQ(a.ValueOrDie().overall, b.ValueOrDie().overall);
}

TEST_P(OptimizerTest, SolutionAlwaysWellFormed) {
  OptFixture f;
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    Problem problem = f.MakeProblem(4);
    auto result = Make(seed, 800)->Run(problem);
    ASSERT_TRUE(result.ok());
    const SolutionEval& best = result.ValueOrDie();
    EXPECT_TRUE(best.feasible);
    EXPECT_EQ(best.sources.size(), 4u);
    EXPECT_TRUE(std::is_sorted(best.sources.begin(), best.sources.end()));
    EXPECT_TRUE(best.schema.IsWellFormed());
    EXPECT_GE(best.overall, 0.0);
    EXPECT_LE(best.overall, 1.0);
  }
}

TEST_P(OptimizerTest, GaConstraintSubsumedByOutput) {
  OptFixture f;
  MediatedSchema ga;
  ga.Add(GlobalAttribute({AttributeRef(0, 0), AttributeRef(1, 0)}));
  // Sources 0 and 1 are implied constraints; pass them explicitly as the
  // effective set (core::Mube::Run derives this automatically).
  Problem problem = f.MakeProblem(3, {0, 1}, ga);
  auto result = Make(7)->Run(problem);
  ASSERT_TRUE(result.ok());
  const SolutionEval& best = result.ValueOrDie();
  MediatedSchema constraint_schema;
  constraint_schema.Add(GlobalAttribute({AttributeRef(0, 0),
                                         AttributeRef(1, 0)}));
  EXPECT_TRUE(best.schema.Subsumes(constraint_schema));
}

INSTANTIATE_TEST_SUITE_P(AllOptimizers, OptimizerTest,
                         ::testing::Values("tabu", "sls", "anneal", "pso"));

TEST(MakeOptimizerTest, UnknownNameRejected) {
  EXPECT_FALSE(MakeOptimizer("genetic", OptimizerOptions()).ok());
  EXPECT_TRUE(MakeOptimizer("exhaustive", OptimizerOptions()).ok());
  EXPECT_TRUE(MakeOptimizer("greedy_per_source", OptimizerOptions()).ok());
}

// --------------------------------------------------------- greedy baseline --

TEST(GreedyBaselineTest, ProducesFeasibleSolutionOfTargetSize) {
  OptFixture f;
  Problem problem = f.MakeProblem(3);
  GreedyPerSourceBaseline greedy;
  auto result = greedy.Run(problem);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result.ValueOrDie().feasible);
  EXPECT_EQ(result.ValueOrDie().sources.size(), 3u);
}

TEST(GreedyBaselineTest, HonorsConstraints) {
  OptFixture f;
  Problem problem = f.MakeProblem(3, {9});
  GreedyPerSourceBaseline greedy;
  auto result = greedy.Run(problem);
  // Greedy may or may not end up feasible (source 9 needs a venue partner
  // greedy cannot reason about); if it succeeds, 9 must be included.
  if (result.ok()) {
    EXPECT_TRUE(std::binary_search(result.ValueOrDie().sources.begin(),
                                   result.ValueOrDie().sources.end(), 9u));
  } else {
    EXPECT_TRUE(result.status().IsInfeasible());
  }
}

TEST(GreedyBaselineTest, NeverBeatsExhaustiveOptimum) {
  OptFixture f;
  Problem problem = f.MakeProblem(3);
  ExhaustiveSearch oracle;
  auto truth = oracle.Run(problem);
  ASSERT_TRUE(truth.ok());
  GreedyPerSourceBaseline greedy;
  auto result = greedy.Run(problem);
  ASSERT_TRUE(result.ok());
  EXPECT_LE(result.ValueOrDie().overall,
            truth.ValueOrDie().overall + 1e-12);
}

TEST(GreedyBaselineTest, DeterministicAcrossRuns) {
  OptFixture f;
  Problem problem = f.MakeProblem(4);
  GreedyPerSourceBaseline greedy;
  auto a = greedy.Run(problem);
  auto b = greedy.Run(problem);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a.ValueOrDie().sources, b.ValueOrDie().sources);
}

}  // namespace
}  // namespace mube
