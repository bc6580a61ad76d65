// Integration tests for src/core: MubeConfig, the Mube engine end to end on
// generated Books universes, the Session feedback loop (the paper's §6
// interaction model), and the Table 1 ground-truth scorer.

#include <algorithm>
#include <memory>

#include <gtest/gtest.h>

#include "core/config.h"
#include "core/ground_truth.h"
#include "core/mube.h"
#include "core/session.h"
#include "datagen/generator.h"
#include "datagen/theater.h"
#include "schema/serialization.h"

namespace mube {
namespace {

GeneratorConfig SmallGen(uint64_t seed = 11) {
  GeneratorConfig config;
  config.seed = seed;
  config.num_sources = 60;
  config.min_cardinality = 100;
  config.max_cardinality = 4'000;
  config.tuple_pool_size = 20'000;
  config.specialty_tuples_min = 10;
  config.specialty_tuples_max = 40;
  return config;
}

MubeConfig FastConfig() {
  MubeConfig config = MubeConfig::PaperDefaults();
  config.max_sources = 8;
  config.optimizer_options.max_evaluations = 1500;
  config.optimizer_options.seed = 5;
  return config;
}

// ----------------------------------------------------------------- config --

TEST(MubeConfigTest, PaperDefaultsValidate) {
  MubeConfig config = MubeConfig::PaperDefaults();
  EXPECT_TRUE(config.Validate().ok());
  ASSERT_EQ(config.qefs.size(), 5u);
  EXPECT_EQ(config.Weights(),
            (std::vector<double>{0.25, 0.25, 0.20, 0.15, 0.15}));
  EXPECT_DOUBLE_EQ(config.theta, 0.75);
  EXPECT_EQ(config.optimizer, "tabu");
}

TEST(MubeConfigTest, ValidationCatchesBadConfigs) {
  MubeConfig no_qefs;
  no_qefs.qefs.clear();
  EXPECT_FALSE(no_qefs.Validate().ok());

  MubeConfig bad_sum = MubeConfig::PaperDefaults();
  bad_sum.qefs[0].weight = 0.9;
  EXPECT_FALSE(bad_sum.Validate().ok());

  MubeConfig no_matching = MubeConfig::PaperDefaults();
  no_matching.qefs.erase(no_matching.qefs.begin());
  no_matching.qefs[0].weight = 0.5;
  EXPECT_FALSE(no_matching.Validate().ok());

  MubeConfig bad_theta = MubeConfig::PaperDefaults();
  bad_theta.theta = 1.5;
  EXPECT_FALSE(bad_theta.Validate().ok());

  MubeConfig nameless_char = MubeConfig::PaperDefaults();
  nameless_char.qefs[4].characteristic = "";
  EXPECT_FALSE(nameless_char.Validate().ok());
}

TEST(MubeConfigTest, DisplayNames) {
  MubeConfig config = MubeConfig::PaperDefaults();
  EXPECT_EQ(config.qefs[0].DisplayName(), "matching");
  EXPECT_EQ(config.qefs[4].DisplayName(), "mttf:wsum");
}

// ----------------------------------------------------------------- engine --

class MubeEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto generated = GenerateUniverse(SmallGen());
    ASSERT_TRUE(generated.ok()) << generated.status().ToString();
    generated_ = std::make_unique<GeneratedUniverse>(
        std::move(generated).ValueOrDie());
    auto mube = Mube::Create(&generated_->universe, FastConfig());
    ASSERT_TRUE(mube.ok()) << mube.status().ToString();
    mube_ = std::move(mube).ValueOrDie();
  }

  std::unique_ptr<GeneratedUniverse> generated_;
  std::unique_ptr<Mube> mube_;
};

TEST_F(MubeEngineTest, CreateRejectsBadInputs) {
  EXPECT_FALSE(Mube::Create(nullptr, FastConfig()).ok());
  Universe empty;
  EXPECT_FALSE(Mube::Create(&empty, FastConfig()).ok());
  MubeConfig bad = FastConfig();
  bad.similarity_measure = "nonsense";
  EXPECT_FALSE(Mube::Create(&generated_->universe, bad).ok());
  MubeConfig bad_opt = FastConfig();
  bad_opt.optimizer = "nonsense";
  // Bad optimizer surfaces at Run time (it is a per-run override target).
  auto engine = Mube::Create(&generated_->universe, bad_opt);
  ASSERT_TRUE(engine.ok());
  EXPECT_FALSE(engine.ValueOrDie()->Run(RunSpec()).ok());
}

TEST_F(MubeEngineTest, UnconstrainedRunProducesFeasibleSolution) {
  auto result = mube_->Run(RunSpec());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const MubeResult& r = result.ValueOrDie();
  EXPECT_TRUE(r.solution.feasible);
  EXPECT_EQ(r.solution.sources.size(), 8u);
  EXPECT_GT(r.solution.overall, 0.0);
  EXPECT_FALSE(r.solution.schema.empty());
  EXPECT_TRUE(r.solution.schema.IsWellFormed());
  EXPECT_GT(r.elapsed_seconds, 0.0);
  EXPECT_GT(r.distinct_subsets_matched, 0u);
  ASSERT_EQ(r.qef_names.size(), 5u);
  EXPECT_EQ(r.qef_names[0], "matching");
  ASSERT_EQ(r.solution.qef_values.size(), 5u);
  for (double v : r.solution.qef_values) {
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 1.0);
  }
}

TEST_F(MubeEngineTest, SourceConstraintsAppearInSolution) {
  RunSpec spec;
  spec.source_constraints = {3, 17};
  auto result = mube_->Run(spec);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const auto& sources = result.ValueOrDie().solution.sources;
  EXPECT_TRUE(std::binary_search(sources.begin(), sources.end(), 3u));
  EXPECT_TRUE(std::binary_search(sources.begin(), sources.end(), 17u));
}

TEST_F(MubeEngineTest, GaConstraintsImplySourcesAndSubsumption) {
  // Pin two attributes of different unperturbed sources together.
  RunSpec spec;
  GlobalAttribute ga;
  ASSERT_TRUE(ga.Insert(AttributeRef(0, 0)));
  ASSERT_TRUE(ga.Insert(AttributeRef(1, 0)));
  spec.ga_constraints.Add(ga);
  auto result = mube_->Run(spec);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const MubeResult& r = result.ValueOrDie();
  EXPECT_TRUE(std::binary_search(r.solution.sources.begin(),
                                 r.solution.sources.end(), 0u));
  EXPECT_TRUE(std::binary_search(r.solution.sources.begin(),
                                 r.solution.sources.end(), 1u));
  EXPECT_TRUE(r.solution.schema.Subsumes(spec.ga_constraints));
}

TEST_F(MubeEngineTest, RunOverridesApply) {
  RunSpec spec;
  spec.max_sources = 5;
  auto result = mube_->Run(spec);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.ValueOrDie().solution.sources.size(), 5u);

  RunSpec weights_spec;
  weights_spec.weights = std::vector<double>{1.0, 0.0, 0.0, 0.0, 0.0};
  auto matching_only = mube_->Run(weights_spec);
  ASSERT_TRUE(matching_only.ok());
  // With all weight on matching, Q(S) == F1(S).
  EXPECT_DOUBLE_EQ(matching_only.ValueOrDie().solution.overall,
                   matching_only.ValueOrDie().solution.qef_values[0]);

  RunSpec bad_weights;
  bad_weights.weights = std::vector<double>{0.5, 0.5};
  EXPECT_FALSE(mube_->Run(bad_weights).ok());
}

TEST_F(MubeEngineTest, HigherThetaNeverRaisesGaCount) {
  RunSpec loose;
  loose.theta = 0.6;
  loose.seed = 9;
  RunSpec strict;
  strict.theta = 0.95;
  strict.seed = 9;
  auto l = mube_->Run(loose);
  auto s = mube_->Run(strict);
  ASSERT_TRUE(l.ok());
  ASSERT_TRUE(s.ok());
  // Same subset search seed; a stricter threshold cannot manufacture GAs
  // out of thin air in the final solution. (Not a per-subset theorem, but
  // it holds robustly at the solution level on this workload.)
  EXPECT_LE(s.ValueOrDie().solution.schema.size() / 2,
            l.ValueOrDie().solution.schema.size());
}

TEST_F(MubeEngineTest, DeterministicForFixedSeed) {
  RunSpec spec;
  spec.seed = 77;
  auto a = mube_->Run(spec);
  auto b = mube_->Run(spec);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a.ValueOrDie().solution.sources, b.ValueOrDie().solution.sources);
  EXPECT_DOUBLE_EQ(a.ValueOrDie().solution.overall,
                   b.ValueOrDie().solution.overall);
}

TEST_F(MubeEngineTest, RunAlternativesReturnsDistinctSortedSolutions) {
  RunSpec spec;
  spec.max_sources = 6;
  auto alternatives = mube_->RunAlternatives(spec, 5);
  ASSERT_TRUE(alternatives.ok()) << alternatives.status().ToString();
  const auto& results = alternatives.ValueOrDie();
  ASSERT_GE(results.size(), 1u);
  ASSERT_LE(results.size(), 5u);
  for (size_t i = 1; i < results.size(); ++i) {
    // Sorted best-first and pairwise distinct.
    EXPECT_GE(results[i - 1].solution.overall, results[i].solution.overall);
    EXPECT_NE(results[i - 1].solution.sources, results[i].solution.sources);
  }
  for (const MubeResult& r : results) {
    EXPECT_TRUE(r.solution.feasible);
    EXPECT_EQ(r.solution.sources.size(), 6u);
  }
  EXPECT_FALSE(mube_->RunAlternatives(spec, 0).ok());
}

TEST(MubeOptimalityTest, TabuMatchesExhaustiveOnTinyUniverse) {
  // Engine-level ground truth: on a universe small enough to enumerate,
  // the default pipeline must find the true optimum.
  GeneratorConfig gen;
  gen.seed = 3;
  gen.num_sources = 12;
  gen.min_cardinality = 50;
  gen.max_cardinality = 500;
  gen.tuple_pool_size = 2'000;
  gen.specialty_tuples_min = 5;
  gen.specialty_tuples_max = 20;
  auto generated = GenerateUniverse(gen);
  ASSERT_TRUE(generated.ok());

  MubeConfig config = MubeConfig::PaperDefaults();
  config.max_sources = 4;
  config.optimizer_options.max_evaluations = 3'000;
  auto engine = Mube::Create(&generated.ValueOrDie().universe, config);
  ASSERT_TRUE(engine.ok());

  RunSpec exhaustive;
  exhaustive.optimizer = "exhaustive";
  auto truth = engine.ValueOrDie()->Run(exhaustive);
  ASSERT_TRUE(truth.ok()) << truth.status().ToString();

  auto tabu = engine.ValueOrDie()->Run(RunSpec());
  ASSERT_TRUE(tabu.ok()) << tabu.status().ToString();
  EXPECT_NEAR(tabu.ValueOrDie().solution.overall,
              truth.ValueOrDie().solution.overall, 1e-9);
}

TEST_F(MubeEngineTest, AllOptimizersRunThroughEngine) {
  for (const char* name : {"tabu", "sls", "anneal", "pso"}) {
    RunSpec spec;
    spec.optimizer = std::string(name);
    auto result = mube_->Run(spec);
    ASSERT_TRUE(result.ok()) << name << ": " << result.status().ToString();
    EXPECT_TRUE(result.ValueOrDie().solution.feasible) << name;
  }
}

// ---------------------------------------------------------------- session --

class SessionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto generated = GenerateUniverse(SmallGen(23));
    ASSERT_TRUE(generated.ok());
    generated_ = std::make_unique<GeneratedUniverse>(
        std::move(generated).ValueOrDie());
    auto session = Session::Create(&generated_->universe, FastConfig());
    ASSERT_TRUE(session.ok()) << session.status().ToString();
    session_ = std::move(session).ValueOrDie();
  }

  std::unique_ptr<GeneratedUniverse> generated_;
  std::unique_ptr<Session> session_;
};

TEST_F(SessionTest, IterateAccumulatesHistory) {
  EXPECT_FALSE(session_->has_result());
  ASSERT_TRUE(session_->Iterate().ok());
  ASSERT_TRUE(session_->Iterate().ok());
  EXPECT_EQ(session_->history().size(), 2u);
}

TEST_F(SessionTest, PinUnpinSources) {
  EXPECT_TRUE(session_->PinSource(5u).ok());
  EXPECT_TRUE(session_->PinSource(12u).ok());
  EXPECT_EQ(session_->PinSource(5u).code(), StatusCode::kAlreadyExists);
  EXPECT_FALSE(session_->PinSource(9999u).ok());
  EXPECT_FALSE(session_->PinSource("not-a-source").ok());

  auto result = session_->Iterate();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const auto& sources = result.ValueOrDie().solution.sources;
  EXPECT_TRUE(std::binary_search(sources.begin(), sources.end(), 5u));
  EXPECT_TRUE(std::binary_search(sources.begin(), sources.end(), 12u));

  EXPECT_TRUE(session_->UnpinSource(5u).ok());
  EXPECT_FALSE(session_->UnpinSource(5u).ok());
  EXPECT_EQ(session_->pinned_sources(), (std::vector<uint32_t>{12u}));
}

TEST_F(SessionTest, PinByName) {
  const std::string name = generated_->universe.source(3).name();
  EXPECT_TRUE(session_->PinSource(name).ok());
  EXPECT_EQ(session_->pinned_sources(), (std::vector<uint32_t>{3u}));
}

TEST_F(SessionTest, FeedbackLoopAdoptGa) {
  // Iteration 1: free run.
  auto first = session_->Iterate();
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_FALSE(first.ValueOrDie().solution.schema.empty());

  // User keeps GA 0 — the core µBE gesture: output becomes input.
  ASSERT_TRUE(session_->AdoptGaFromLastResult(0).ok());
  EXPECT_EQ(session_->ga_constraints().size(), 1u);
  EXPECT_FALSE(session_->AdoptGaFromLastResult(999).ok());

  // Iteration 2 must honor it.
  auto second = session_->Iterate();
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_TRUE(second.ValueOrDie().solution.schema.Subsumes(
      session_->ga_constraints()));
}

TEST_F(SessionTest, GaConstraintFromText) {
  const Universe& u = generated_->universe;
  const std::string line = u.source(0).name() + "." +
                           u.source(0).attribute(0).name + ", " +
                           u.source(1).name() + "." +
                           u.source(1).attribute(0).name;
  ASSERT_TRUE(session_->AddGaConstraintFromText(line).ok());
  EXPECT_EQ(session_->ga_constraints().size(), 1u);
  EXPECT_FALSE(session_->AddGaConstraintFromText("bogus.line").ok());
}

TEST_F(SessionTest, OverlappingGaConstraintRejected) {
  GlobalAttribute a({AttributeRef(0, 0), AttributeRef(1, 0)});
  GlobalAttribute overlapping({AttributeRef(0, 0), AttributeRef(2, 0)});
  ASSERT_TRUE(session_->AddGaConstraint(a).ok());
  EXPECT_FALSE(session_->AddGaConstraint(overlapping).ok());
  session_->ClearGaConstraints();
  EXPECT_TRUE(session_->AddGaConstraint(overlapping).ok());
}

TEST_F(SessionTest, KnobValidation) {
  EXPECT_FALSE(session_->SetTheta(2.0).ok());
  EXPECT_TRUE(session_->SetTheta(0.8).ok());
  EXPECT_FALSE(session_->SetMaxSources(0).ok());
  EXPECT_TRUE(session_->SetMaxSources(6).ok());
  EXPECT_FALSE(session_->SetWeights({0.5}).ok());
  EXPECT_FALSE(session_->SetWeights({0.5, 0.5, 0.5, 0.5, 0.5}).ok());
  EXPECT_TRUE(session_->SetWeights({0.4, 0.3, 0.1, 0.1, 0.1}).ok());
  EXPECT_FALSE(session_->SetOptimizer("nope").ok());
  EXPECT_TRUE(session_->SetOptimizer("sls").ok());

  auto result = session_->Iterate();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.ValueOrDie().solution.sources.size(), 6u);
}

TEST_F(SessionTest, RenderLastResultReadable) {
  EXPECT_NE(session_->RenderLastResult().find("no result"),
            std::string::npos);
  ASSERT_TRUE(session_->Iterate().ok());
  const std::string text = session_->RenderLastResult();
  EXPECT_NE(text.find("== sources"), std::string::npos);
  EXPECT_NE(text.find("== mediated schema"), std::string::npos);
  EXPECT_NE(text.find("Q(S) ="), std::string::npos);
}

TEST_F(SessionTest, RenderedGasParseBackAsConstraints) {
  // The round trip the paper's UI depends on: serialize the output schema,
  // parse each line back as a GA constraint.
  ASSERT_TRUE(session_->Iterate().ok());
  const MediatedSchema& schema = session_->last_result().solution.schema;
  const std::string text =
      SerializeMediatedSchema(schema, generated_->universe);
  Result<MediatedSchema> parsed =
      ParseMediatedSchema(text, generated_->universe);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed.ValueOrDie(), schema);
}

TEST_F(SessionTest, SaveAndRestoreStateRoundTrips) {
  ASSERT_TRUE(session_->PinSource(4u).ok());
  ASSERT_TRUE(session_->PinSource(9u).ok());
  ASSERT_TRUE(session_->SetTheta(0.8).ok());
  ASSERT_TRUE(session_->SetMaxSources(6).ok());
  ASSERT_TRUE(session_->SetWeights({0.4, 0.3, 0.1, 0.1, 0.1}).ok());
  ASSERT_TRUE(session_->SetOptimizer("sls").ok());
  GlobalAttribute ga({AttributeRef(0, 0), AttributeRef(1, 0)});
  ASSERT_TRUE(session_->AddGaConstraint(ga).ok());

  auto saved = session_->SaveState();
  ASSERT_TRUE(saved.ok()) << saved.status().ToString();
  const std::string blob = saved.ValueOrDie();

  // A fresh session over the same universe restores everything.
  auto fresh = Session::Create(&generated_->universe, FastConfig());
  ASSERT_TRUE(fresh.ok());
  Session& restored = *fresh.ValueOrDie();
  ASSERT_TRUE(restored.RestoreState(blob).ok());
  EXPECT_EQ(restored.pinned_sources(), session_->pinned_sources());
  EXPECT_EQ(restored.ga_constraints(), session_->ga_constraints());
  // Save again: the round trip is a fixed point.
  auto resaved = restored.SaveState();
  ASSERT_TRUE(resaved.ok());
  EXPECT_EQ(resaved.ValueOrDie(), blob);

  // And it still drives an iteration respecting the restored state.
  auto result = restored.Iterate();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.ValueOrDie().solution.sources.size(), 6u);
  EXPECT_TRUE(std::binary_search(result.ValueOrDie().solution.sources.begin(),
                                 result.ValueOrDie().solution.sources.end(),
                                 4u));
}

// ------------------------------------------------- reliability feedback --

// Six interchangeable sources (same "title" attribute, disjoint equal-size
// tuple sets): every 3-subset scores the same base Q, so the health bias is
// the only tiebreaker and its effect on selection is deterministic.
class HealthBiasTest : public ::testing::Test {
 protected:
  void SetUp() override {
    for (int i = 0; i < 6; ++i) {
      Source s(0, "src" + std::to_string(i));
      s.AddAttribute(Attribute("title"));
      s.AddAttribute(Attribute("junkcol" + std::to_string(i) + "zz"));
      std::vector<uint64_t> tuples;
      for (uint64_t t = 0; t < 1000; ++t) {
        tuples.push_back(static_cast<uint64_t>(i) * 100'000 + t);
      }
      s.SetTuples(std::move(tuples));
      universe_.AddSource(std::move(s));
    }
    MubeConfig config = FastConfig();
    config.max_sources = 3;
    config.optimizer = "exhaustive";  // C(6,3) = 20: the true optimum
    auto session = Session::Create(&universe_, config);
    ASSERT_TRUE(session.ok()) << session.status().ToString();
    session_ = std::move(session).ValueOrDie();
  }

  /// Records `ok` successes and `failed` failures for source `sid`.
  void RecordScans(uint32_t sid, size_t ok, size_t failed,
                   size_t short_circuits = 0) {
    ExecutionReport report;
    for (size_t i = 0; i < ok; ++i) {
      SourceScanLog log;
      log.source_id = sid;
      log.status = ScanStatus::kOk;
      report.scans.push_back(log);
    }
    for (size_t i = 0; i < failed; ++i) {
      SourceScanLog log;
      log.source_id = sid;
      log.status = ScanStatus::kFailed;
      report.scans.push_back(log);
    }
    for (size_t i = 0; i < short_circuits; ++i) {
      SourceScanLog log;
      log.source_id = sid;
      log.status = ScanStatus::kShortCircuited;
      report.scans.push_back(log);
    }
    session_->RecordExecution(report);
  }

  Universe universe_;
  std::unique_ptr<Session> session_;
};

TEST_F(HealthBiasTest, HealthScoresReflectScanOutcomes) {
  RecordScans(0, 3, 1);
  RecordScans(1, 1, 0, 3);  // short-circuits count as failures
  RecordScans(2, 5, 0);
  const auto scores = session_->HealthScores();
  ASSERT_EQ(scores.size(), 3u);
  EXPECT_DOUBLE_EQ(scores.at(0), 0.75);
  EXPECT_DOUBLE_EQ(scores.at(1), 0.25);
  EXPECT_DOUBLE_EQ(scores.at(2), 1.0);
  EXPECT_EQ(scores.count(3), 0u);  // never executed: absent, not penalized
}

TEST_F(HealthBiasTest, OpenBreakerSourceSelectedAroundWhenBiasOn) {
  // Source 0's breaker keeps opening: 1 success, many short-circuits.
  RecordScans(0, 1, 1, 8);
  for (uint32_t sid = 1; sid < 6; ++sid) RecordScans(sid, 4, 0);

  // Bias off (default): health is reported, never optimized for.
  auto baseline = session_->Iterate();
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  const auto& base_names = baseline.ValueOrDie().qef_names;
  EXPECT_EQ(std::count(base_names.begin(), base_names.end(), "health"), 0);

  // Bias on: every subset containing source 0 is strictly dominated by the
  // same subset with 0 swapped for a healthy source, so the optimum cannot
  // contain it.
  ASSERT_TRUE(session_->SetHealthBias(0.3).ok());
  auto biased = session_->Iterate();
  ASSERT_TRUE(biased.ok()) << biased.status().ToString();
  const MubeResult& result = biased.ValueOrDie();
  EXPECT_FALSE(std::binary_search(result.solution.sources.begin(),
                                  result.solution.sources.end(), 0u));
  ASSERT_EQ(result.qef_names.back(), "health");
  ASSERT_EQ(result.qef_names.size(), result.solution.qef_values.size());
  // All three chosen sources are fully healthy.
  EXPECT_DOUBLE_EQ(result.solution.qef_values.back(), 1.0);
}

TEST_F(HealthBiasTest, PinnedSourceOverridesHealthBias) {
  // The user's explicit pin outranks the reliability feedback: the failing
  // source stays selected, its poor health merely prices the solution.
  RecordScans(0, 0, 6);
  ASSERT_TRUE(session_->SetHealthBias(0.3).ok());
  ASSERT_TRUE(session_->PinSource(0u).ok());
  auto result = session_->Iterate();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(std::binary_search(result.ValueOrDie().solution.sources.begin(),
                                 result.ValueOrDie().solution.sources.end(),
                                 0u));
  EXPECT_LT(result.ValueOrDie().solution.qef_values.back(), 1.0);
}

TEST_F(HealthBiasTest, BiasValidationAndPersistence) {
  EXPECT_FALSE(session_->SetHealthBias(-0.1).ok());
  EXPECT_FALSE(session_->SetHealthBias(1.0).ok());
  ASSERT_TRUE(session_->SetHealthBias(0.25).ok());
  EXPECT_DOUBLE_EQ(session_->health_bias(), 0.25);

  auto saved = session_->SaveState();
  ASSERT_TRUE(saved.ok());
  EXPECT_NE(saved.ValueOrDie().find("health_bias"), std::string::npos);

  MubeConfig config = FastConfig();
  config.max_sources = 3;
  auto fresh = Session::Create(&universe_, config);
  ASSERT_TRUE(fresh.ok());
  ASSERT_TRUE(fresh.ValueOrDie()->RestoreState(saved.ValueOrDie()).ok());
  EXPECT_DOUBLE_EQ(fresh.ValueOrDie()->health_bias(), 0.25);
  // Restoring a blob without the directive resets the bias to off.
  ASSERT_TRUE(fresh.ValueOrDie()->RestoreState("seed 1\n").ok());
  EXPECT_DOUBLE_EQ(fresh.ValueOrDie()->health_bias(), 0.0);
}

TEST_F(SessionTest, RestoreStateRejectsGarbageAtomically) {
  ASSERT_TRUE(session_->PinSource(3u).ok());
  const auto before = session_->pinned_sources();

  EXPECT_FALSE(session_->RestoreState("pin no-such-source\n").ok());
  EXPECT_FALSE(session_->RestoreState("bogus directive\n").ok());
  EXPECT_FALSE(session_->RestoreState("theta 3.0\n").ok());
  EXPECT_FALSE(session_->RestoreState("weights 0.5 0.5\n").ok());
  EXPECT_FALSE(session_->RestoreState("optimizer warp\n").ok());
  EXPECT_FALSE(session_->RestoreState("max_sources 0\n").ok());
  // Every directive goes through the live setters' validation and the
  // strict number parsers.
  const std::string saved_before = session_->SaveState().ValueOrDie();
  EXPECT_FALSE(session_->RestoreState("weights 2 -1 0 0 0\n").ok());
  EXPECT_FALSE(session_->RestoreState("weights 0.5 0.5 0.5 0.5 0.5\n").ok());
  EXPECT_FALSE(session_->RestoreState("seed banana\n").ok());
  EXPECT_FALSE(session_->RestoreState("theta 0.5junk\n").ok());
  EXPECT_FALSE(session_->RestoreState("max_sources 3junk\n").ok());
  EXPECT_FALSE(session_->RestoreState("health_bias 0.2x\n").ok());
  // The session reads the catalog through its pointer, so a source retired
  // there is retired for the session's validation too.
  generated_->universe.RetireSource(7);
  const std::string retired = generated_->universe.source(7).name();
  EXPECT_EQ(session_->RestoreState("pin " + retired + "\n").code(),
            StatusCode::kFailedPrecondition);
  // The failed restores must not have clobbered the state.
  EXPECT_EQ(session_->pinned_sources(), before);
  EXPECT_EQ(session_->SaveState().ValueOrDie(), saved_before);

  // Repeated pins are accepted and deduplicated.
  const std::string live = generated_->universe.source(4).name();
  ASSERT_TRUE(
      session_->RestoreState("pin " + live + "\npin " + live + "\n").ok());
  EXPECT_EQ(session_->pinned_sources(), (std::vector<uint32_t>{4u}));
}

TEST_F(SessionTest, RestoreEmptyStateClears) {
  ASSERT_TRUE(session_->PinSource(3u).ok());
  ASSERT_TRUE(session_->RestoreState("# nothing\n").ok());
  EXPECT_TRUE(session_->pinned_sources().empty());
  EXPECT_TRUE(session_->ga_constraints().empty());
}

// ----------------------------------------------------------- ground truth --

TEST(GroundTruthTest, ScoresPureAndFalseGas) {
  Universe u;
  for (int i = 0; i < 4; ++i) {
    Source s(0, "g" + std::to_string(i));
    s.AddAttribute(Attribute("title", 0));
    s.AddAttribute(Attribute("author", 1));
    s.AddAttribute(Attribute("noise" + std::to_string(i), kNoConcept));
    u.AddSource(std::move(s));
  }

  SolutionEval solution;
  solution.sources = {0, 1, 2, 3};
  // Pure title GA over 3 sources.
  solution.schema.Add(GlobalAttribute(
      {AttributeRef(0, 0), AttributeRef(1, 0), AttributeRef(2, 0)}));
  // False GA: mixes author with noise.
  solution.schema.Add(
      GlobalAttribute({AttributeRef(0, 1), AttributeRef(1, 2)}));
  // Singleton (e.g. user constraint): neither true nor false.
  solution.schema.Add(GlobalAttribute({AttributeRef(3, 1)}));

  GaQualityReport report = ScoreAgainstConcepts(u, solution, 14);
  EXPECT_EQ(report.true_gas_selected, 1u);       // title
  EXPECT_EQ(report.attributes_in_true_gas, 3u);
  EXPECT_EQ(report.false_gas, 1u);
  // Recoverable: title (4 sources) and author (4 sources) -> 2; author was
  // missed.
  EXPECT_EQ(report.recoverable_concepts, 2u);
  EXPECT_EQ(report.true_gas_missed, 1u);
  EXPECT_NE(report.ToString().find("true_gas=1"), std::string::npos);
}

TEST(GroundTruthTest, EndToEndOnGeneratedUniverse) {
  auto generated = GenerateUniverse(SmallGen(31));
  ASSERT_TRUE(generated.ok());
  auto mube = Mube::Create(&generated.ValueOrDie().universe, FastConfig());
  ASSERT_TRUE(mube.ok());
  auto result = mube.ValueOrDie()->Run(RunSpec());
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  GaQualityReport report =
      ScoreAgainstConcepts(generated.ValueOrDie().universe,
                           result.ValueOrDie().solution,
                           generated.ValueOrDie().num_concepts);
  // The headline Table 1 claims, at small scale: µBE finds true GAs and
  // produces no false ones.
  EXPECT_GT(report.true_gas_selected, 0u);
  EXPECT_EQ(report.false_gas, 0u);
}

}  // namespace
}  // namespace mube
