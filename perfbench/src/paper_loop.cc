// paper_loop: the paper's §6 refinement loop on its §7.1 universe.
//
// Why this workload: Match(S) misses are nearly all of Mube::Run's time
// here, while the text and serving layers do almost no work. It shows
// gains in the optimizer, Match and QEF layers and predicts no change for
// text-layer work.

#include <memory>
#include <optional>
#include <vector>

#include "bench/bench_util.h"
#include "core/ground_truth.h"
#include "core/mube.h"
#include "datagen/generator.h"
#include "sketch/signature_cache.h"
#include "text/similarity.h"
#include "trace.h"
#include "workloads.h"

namespace mube::perfbench {

namespace {

struct PaperInputs {
  GeneratedUniverse generated;
  MubeConfig config;
  std::vector<RunSpec> specs;  // the five Fig 5 configurations, in order
};

/// Passes per untraced run at least. Each pass is a fresh universe and
/// fresh iteration seeds, so a run's median averages over several inputs.
constexpr size_t kMinPasses = 3;
/// Pass p runs on the universe of generator seed kFirstUniverseSeed + p,
/// whatever the run seed, which draws the iteration seeds: with universes
/// drawn from the run seed too, iteration time followed the universes'
/// sizes (set-up 34-50 ms, iterations 1.19-1.51 s over ten seeds).
constexpr uint64_t kFirstUniverseSeed = 1;
/// One Mube::Create takes ~40 ms, and a shared box's speed drifts over
/// seconds, so set-up is timed on this many throwaway engines before every
/// iteration, and setup_s is the median over every build of the run.
constexpr size_t kCreatesPerIteration = 4;

/// |U| = 200, m = 20, 2048-map PCSA, the quick-mode BenchConfig budget
/// (25·|U| + 150·m evaluations / 6). Patience is off: every iteration
/// spends its whole budget, so its time measures the cost of the search
/// rather than where a trajectory happened to stall. Pass `pass` of a run
/// with seed s draws its iteration seeds from (s, pass).
PaperInputs MakeInputs(const Args& args, size_t pass) {
  const size_t num_sources = args.tiny ? 60 : 200;
  const size_t m = 20;
  GeneratorConfig gen;
  gen.seed = kFirstUniverseSeed + pass;
  gen.num_sources = num_sources;
  if (args.tiny) {
    gen.max_cardinality = 50'000;
    gen.tuple_pool_size = 200'000;
  }
  PaperInputs inputs{GenerateUniverse(gen).ValueOrDie(),
                     MubeConfig::PaperDefaults(), {}};
  const size_t budget = (25 * num_sources + 150 * m) / 6;
  inputs.config.max_sources = m;
  inputs.config.optimizer_options.max_evaluations = budget;
  inputs.config.optimizer_options.patience = 0;
  inputs.config.optimizer_options.seed = 1;
  // One similarity thread, as the caller and the optimizer: with nproc
  // threads set-up time tracked how many of a shared box's cores were free
  // (+32% between two sets of runs, against +17% for the iterations).
  inputs.config.similarity_threads = 1;
  uint64_t spec_seed = (args.seed * 64 + pass) * 1000;
  for (const bench::ConstraintConfig& cc : bench::PaperConstraintConfigs()) {
    inputs.specs.push_back(
        bench::MakeRunSpec(inputs.generated, cc, ++spec_seed, budget, m));
  }
  return inputs;
}

/// One pass of the five-iteration script on a fresh engine.
struct LoopPass {
  std::vector<double> create_s;
  double loop_s = 0.0;  // the iterations only, not the set-up samples
  std::vector<double> iteration_s;
  std::vector<SolutionEval> answers;
  size_t failed = 0;
};

LoopPass RunLoop(const PaperInputs& inputs, MetricsRegistry* registry) {
  LoopPass pass;
  auto create = [&] {
    const WallTimer watch;
    std::unique_ptr<Mube> engine =
        Mube::Create(&inputs.generated.universe, inputs.config).ValueOrDie();
    engine->AttachMetrics(registry);
    pass.create_s.push_back(watch.ElapsedSeconds());
    return engine;
  };
  const std::unique_ptr<Mube> engine = create();
  for (const RunSpec& spec : inputs.specs) {
    for (size_t i = 0; i < kCreatesPerIteration; ++i) create();
    const WallTimer iteration;
    Result<MubeResult> result = engine->Run(spec);
    pass.iteration_s.push_back(iteration.ElapsedSeconds());
    pass.loop_s += pass.iteration_s.back();
    if (!result.ok()) {
      ++pass.failed;
      pass.answers.emplace_back();
      continue;
    }
    pass.answers.push_back(result.ValueOrDie().solution);
  }
  return pass;
}

}  // namespace

void RunPaperLoop(const Args& args, Report* report) {
  // Untraced passes; the traced run makes exactly one, as its baseline.
  std::optional<PaperInputs> traced_input;
  std::vector<LoopPass> passes;
  const WallTimer clock;
  do {
    PaperInputs inputs = MakeInputs(args, passes.size());
    MetricsRegistry registry;
    passes.push_back(RunLoop(inputs, &registry));
    report->Operations(inputs.specs.size(), passes.back().failed);
    // Table 1: at m = 20 with no constraints, no GA mixes concepts.
    const GaQualityReport table1 = ScoreAgainstConcepts(
        inputs.generated.universe, passes.back().answers[0],
        inputs.generated.num_concepts);
    report->Check(passes.back().failed == 0 && table1.false_gas == 0,
                  "paper_loop: every iteration answered and zero false GAs "
                  "on the unconstrained one (" + table1.ToString() + ")");
    if (args.trace) {
      const double calls = CounterValue(&registry, "mube_match_calls_total");
      const double union_hits =
          CounterValue(&registry, "mube_union_memo_hits_total");
      const double union_calls =
          union_hits + CounterValue(&registry, "mube_union_memo_misses_total");
      report->Metric(
          "opt.evaluations",
          CounterValue(&registry, "mube_optimizer_evaluations_total"),
          "count");
      report->Metric("match.calls", calls, "count");
      report->Metric(
          "match.memo_hit_ratio",
          Ratio(CounterValue(&registry, "mube_match_memo_hits_total"), calls),
          "ratio");
      report->Metric("sketch.union_calls", union_calls, "count");
      report->Metric("sketch.union_memo_hit_ratio",
                     Ratio(union_hits, union_calls), "ratio");
      traced_input = std::move(inputs);
      break;
    }
  } while (passes.size() < kMinPasses || clock.ElapsedSeconds() < args.seconds);

  if (!args.trace) {
    std::vector<double> create_s, loop_s, iteration_s, q;
    for (const LoopPass& pass : passes) {
      create_s.insert(create_s.end(), pass.create_s.begin(),
                      pass.create_s.end());
      loop_s.push_back(pass.loop_s);
      iteration_s.insert(iteration_s.end(), pass.iteration_s.begin(),
                         pass.iteration_s.end());
      for (const SolutionEval& answer : pass.answers) {
        q.push_back(answer.overall);
      }
    }
    report->Metric("setup_s", Median(create_s), "s");
    report->Metric("peak_rss_mb", PeakRssMb(), "MB");
    report->Metric("iteration_p50_s", Median(iteration_s), "s");
    // One §6 answer is one iteration: the specs are built before timing.
    report->Metric("answer_p50_ms", Median(iteration_s) * 1e3, "ms");
    report->Metric("mean_q", Mean(q), "Q");
    report->Detail("loop_s", Median(loop_s), "s");
    report->Detail("passes", static_cast<double>(passes.size()), "count");
    return;
  }
  const PaperInputs& input = *traced_input;
  const Universe& universe = input.generated.universe;
  const LoopPass& first = passes.front();

  // ---- traced run: setup layers re-executed from outside ----------------
  report->Metric("core.create_s", Median(first.create_s), "s");
  {
    std::unique_ptr<SimilarityMeasure> measure =
        MakeSimilarityMeasure(input.config.similarity_measure).ValueOrDie();
    std::unique_ptr<Mube> probe =
        Mube::Create(&universe, input.config).ValueOrDie();
    std::unique_ptr<SimilaritySource> text = probe->similarity().CloneSource();
    const WallTimer text_watch;
    text->Rebuild(universe, *measure, input.config.similarity_threads);
    report->Metric("text.build_s", text_watch.ElapsedSeconds(), "s");
    report->Metric("text.build_measure_calls",
                   static_cast<double>(text->last_measure_calls()), "count");
    report->Metric("text.memory_mb",
                   static_cast<double>(text->MemoryBytes()) / (1 << 20), "MB");
    const WallTimer sketch_watch;
    const SignatureCache sketches(universe, input.config.pcsa);
    report->Metric("sketch.build_s", sketch_watch.ElapsedSeconds(), "s");
  }

  // ---- traced run: each iteration re-solved on a fresh engine -----------
  std::unique_ptr<Mube> engine =
      Mube::Create(&universe, input.config).ValueOrDie();
  SolveTrace sum;
  double untraced_ms = 0.0;
  bool identical = true;
  for (size_t i = 0; i < input.specs.size(); ++i) {
    Result<SolveTrace> traced = TracedSolve(*engine, input.specs[i]);
    if (!traced.ok()) {
      report->Check(false, "paper_loop: traced re-solve " +
                               traced.status().ToString());
      return;
    }
    const SolveTrace& t = traced.ValueOrDie();
    identical = identical && SameAnswer(t.solution, first.answers[i]);
    untraced_ms += first.iteration_s[i] * 1e3;
    sum.Add(t);
  }
  report->Check(identical,
                "paper_loop: traced answers bit-identical to Mube::Run");
  ReportSolveLayers(sum, report);
  report->Metric("bench.trace_overhead_frac",
                 Ratio(sum.total_ms - untraced_ms, untraced_ms), "ratio");
  report->Metric("bench.unattributed_frac",
                 Ratio(sum.UnattributedMs(), sum.total_ms), "ratio");
  report->Check(std::abs(sum.UnattributedMs()) <= 0.15 * sum.total_ms,
                "paper_loop: layer self times account for the traced loop "
                "within 15%");
}

}  // namespace mube::perfbench
