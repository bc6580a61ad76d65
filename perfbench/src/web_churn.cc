// web_churn: an internet-scale, schemas-only universe under catalog churn.
//
// Why this workload: text-layer writes (sparse index build, churn splice,
// clone on fork) sit beside text-layer reads (neighbour rows in Match).
// The universe is uncooperative, so the sketch layer does almost nothing.
// A SnapshotManager alternates two steps: publish one mixed churn batch,
// then run one Mube::Run on the newly published epoch.

#include <cmath>
#include <cstring>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "core/mube.h"
#include "datagen/scale.h"
#include "dynamic/churn.h"
#include "dynamic/delta_universe.h"
#include "serving/snapshot.h"
#include "sketch/signature_cache.h"
#include "text/similarity.h"
#include "text/sparse_similarity.h"
#include "trace.h"
#include "workloads.h"

namespace mube::perfbench {

namespace {

/// Setups per run; setup_s reports their median.
constexpr size_t kSetups = 3;
/// Generator seed of the universe, the same for every run seed, which draws
/// the churn sequence and the iteration seeds: with a universe per seed,
/// the iterations' median ran 0.37-0.57 s over ten seeds.
constexpr uint64_t kUniverseSeed = 1;
/// Events per churn batch: renames, adds and removes.
constexpr size_t kRenames = 4;
constexpr size_t kAdds = 3;
constexpr size_t kRemoves = 3;

MubeConfig ChurnConfig(const Args& args) {
  MubeConfig config = MubeConfig::PaperDefaults();
  config.max_sources = args.tiny ? 8 : 20;
  config.optimizer_options.max_evaluations = args.tiny ? 100 : 400;
  // Patience off: every run spends its whole budget, so its time measures
  // the search rather than where a trajectory happened to stall.
  config.optimizer_options.patience = 0;
  config.optimizer_options.seed = 1;
  // Below the auto threshold only at tiny sizes; the point is the sparse
  // index, so select it explicitly rather than by size there.
  if (args.tiny) config.similarity_index = "sparse";
  return config;
}

/// The round-th batch of the fixed churn sequence, drawn against the
/// current epoch's universe so every event resolves. Deterministic in
/// (seed, round, universe).
std::vector<ChurnEvent> ChurnBatch(const Universe& universe, uint64_t seed,
                                   size_t round) {
  Rng rng(seed * 0x9E3779B97F4A7C15ULL + round);
  const std::vector<uint32_t> alive = universe.AliveSourceIds();
  std::set<uint32_t> touched;
  auto pick = [&]() {
    uint32_t sid;
    do {
      sid = alive[rng.Uniform(alive.size())];
    } while (!touched.insert(sid).second);
    return sid;
  };
  std::vector<ChurnEvent> batch;
  for (size_t i = 0; i < kRenames; ++i) {
    const Source& s = universe.source(pick());
    const uint32_t attr =
        static_cast<uint32_t>(rng.Uniform(s.attribute_count()));
    batch.push_back(ChurnEvent::RenameAttribute(
        s.name(), attr, s.attribute(attr).name + " r" + std::to_string(round)));
  }
  for (size_t i = 0; i < kAdds; ++i) {
    // A re-listed copy of an existing schema: it lands in a live family.
    const Source& model = universe.source(pick());
    Source fresh(0, "churn-" + std::to_string(round) + "-" +
                        std::to_string(i) + "." + model.name());
    for (uint32_t a = 0; a < model.attribute_count(); ++a) {
      fresh.AddAttribute(Attribute(model.attribute(a).name));
    }
    batch.push_back(ChurnEvent::AddSource(std::move(fresh)));
  }
  for (size_t i = 0; i < kRemoves; ++i) {
    batch.push_back(ChurnEvent::RemoveSource(universe.source(pick()).name()));
  }
  return batch;
}

}  // namespace

void RunWebChurn(const Args& args, Report* report) {
  ScaleConfig scale;
  scale.seed = kUniverseSeed;
  scale.num_sources = args.tiny ? 2'000 : 50'000;
  const Universe universe =
      std::move(GenerateScaleUniverse(scale).ValueOrDie().universe);
  const MubeConfig config = ChurnConfig(args);

  // Setup: generated universe -> answer-ready epoch 0. The last manager
  // built is the one the script runs on.
  std::vector<double> setup_s;
  MetricsRegistry registry;
  std::unique_ptr<SnapshotManager> manager;
  for (size_t i = 0; i < (args.trace ? 1 : kSetups); ++i) {
    manager.reset();
    const WallTimer watch;
    manager = SnapshotManager::Create(universe, config, &registry).ValueOrDie();
    setup_s.push_back(watch.ElapsedSeconds());
  }

  std::vector<double> publish_ms, answer_ms, iteration_s, lease_us, q;
  std::set<uint32_t> touched;
  PublishReplay replay_sum;
  SolveTrace solve_sum;
  double untraced_run_ms = 0.0;
  bool traced_identical = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  const WallTimer clock;
  // Untraced runs step until the seconds are spent; traced runs make a
  // fixed number of steps, each replayed and re-solved.
  const size_t min_rounds = args.trace ? 4 : 3;
  auto more_rounds = [&](size_t round) {
    return round < min_rounds ||
           (!args.trace && clock.ElapsedSeconds() < args.seconds);
  };
  for (size_t round = 0; more_rounds(round); ++round) {
    SnapshotManager::Lease base = manager->Acquire();
    const std::vector<ChurnEvent> batch =
        ChurnBatch(base.universe(), args.seed, round);

    ++attempted;
    WallTimer watch;
    const Status published = manager->ApplyChurn(batch);
    publish_ms.push_back(watch.ElapsedMillis());
    if (!published.ok()) {
      ++failed;
      continue;
    }

    watch.Reset();
    SnapshotManager::Lease epoch = manager->Acquire();
    lease_us.push_back(watch.ElapsedMillis() * 1e3);
    for (uint32_t sid = static_cast<uint32_t>(base.universe().size());
         sid < epoch.universe().size(); ++sid) {
      touched.insert(sid);
    }
    RunSpec spec;
    spec.seed = args.seed * 1000 + round;
    ++attempted;
    const WallTimer iteration;
    Result<MubeResult> result = epoch.engine().Run(spec);
    iteration_s.push_back(iteration.ElapsedSeconds());
    answer_ms.push_back(publish_ms.back() + watch.ElapsedMillis());
    if (!result.ok()) {
      ++failed;
      continue;
    }
    const SolutionEval& answer = result.ValueOrDie().solution;
    q.push_back(answer.overall);
    for (const ChurnEvent& event : batch) {
      const std::optional<uint32_t> sid =
          epoch.universe().FindSource(event.source_name);
      if (sid.has_value()) touched.insert(*sid);
    }

    if (!args.trace) continue;
    const std::vector<size_t> slice =
        SampleSlice(epoch.universe(), touched, 512);
    replay_sum.Add(ReplayPublish(base, epoch, batch, slice));

    Result<SolveTrace> traced = TracedSolve(epoch.engine(), spec);
    if (!traced.ok()) {
      report->Check(false, "web_churn: traced re-solve " +
                               traced.status().ToString());
      return;
    }
    const SolveTrace& t = traced.ValueOrDie();
    traced_identical = traced_identical && SameAnswer(t.solution, answer);
    untraced_run_ms += iteration_s.back() * 1e3;
    solve_sum.Add(t);
  }
  report->Operations(attempted, failed);
  report->Check(failed == 0,
                "web_churn: every publish and every run succeeded");

  // Churn ≡ rebuild: the last epoch's rows equal a fresh build's.
  SnapshotManager::Lease last = manager->Acquire();
  std::unique_ptr<SimilarityMeasure> measure =
      MakeSimilarityMeasure(config.similarity_measure).ValueOrDie();
  const WallTimer build_watch;
  const SparseSimilarityIndex rebuilt(last.universe(), *measure,
                                      config.sparse_options,
                                      config.similarity_threads);
  const double build_s = build_watch.ElapsedSeconds();
  report->Check(SameRows(last.engine().similarity(), rebuilt,
                         SampleSlice(last.universe(), touched, 2048)),
                "web_churn: churned similarity rows bit-identical to a fresh "
                "rebuild on a sampled slice");
  last.Release();

  if (!args.trace) {
    report->Metric("setup_s", Median(setup_s), "s");
    report->Metric("peak_rss_mb", PeakRssMb(), "MB");
    report->Metric("iteration_p50_s", Median(iteration_s), "s");
    // The answer a tenant waits for after churn: publish, lease, run.
    report->Metric("answer_p50_ms", Median(answer_ms), "ms");
    report->Metric("mean_q", Mean(q), "Q");
    report->Detail("publish_p50_ms", Median(publish_ms), "ms");
    report->Detail("steps", static_cast<double>(publish_ms.size()), "count");
    return;
  }

  report->Check(replay_sum.matches_published,
                "web_churn: step-by-step publish replay matches the "
                "published epoch");
  report->Check(traced_identical,
                "web_churn: traced answers bit-identical to Mube::Run");
  const double steps = static_cast<double>(publish_ms.size());
  const double match_calls =
      CounterValue(&registry, "mube_match_calls_total");
  const double union_hits =
      CounterValue(&registry, "mube_union_memo_hits_total");
  const double union_calls =
      union_hits + CounterValue(&registry, "mube_union_memo_misses_total");
  report->Metric("core.create_s", setup_s.front(), "s");
  report->Metric("opt.evaluations",
                 CounterValue(&registry, "mube_optimizer_evaluations_total"),
                 "count");
  report->Metric("match.calls", match_calls, "count");
  report->Metric(
      "match.memo_hit_ratio",
      Ratio(CounterValue(&registry, "mube_match_memo_hits_total"), match_calls),
      "ratio");
  ReportSolveLayers(solve_sum, report);
  report->Metric("sketch.union_calls", union_calls, "count");
  report->Metric("sketch.union_memo_hit_ratio", Ratio(union_hits, union_calls),
                 "ratio");
  {
    const WallTimer watch;
    const SignatureCache sketches(universe, config.pcsa);
    report->Metric("sketch.build_s", watch.ElapsedSeconds(), "s");
  }
  report->Metric("sketch.churn_ms", replay_sum.sketch_churn_ms, "ms");
  report->Metric("text.build_s", build_s, "s");
  report->Metric("text.build_measure_calls",
                 static_cast<double>(rebuilt.last_measure_calls()), "count");
  const SparseIndexStats stats = rebuilt.stats();
  report->Metric("text.candidate_pairs",
                 static_cast<double>(stats.candidate_pairs), "count");
  report->Metric("text.stored_pairs", static_cast<double>(stats.stored_pairs),
                 "count");
  report->Metric("text.useful_ratio",
                 Ratio(static_cast<double>(stats.stored_pairs),
                       static_cast<double>(stats.candidate_pairs)),
                 "ratio");
  report->Metric("text.memory_mb",
                 static_cast<double>(rebuilt.MemoryBytes()) / (1 << 20), "MB");
  report->Metric("text.clone_ms", replay_sum.text_clone_ms, "ms");
  report->Metric("text.churn_splice_ms", replay_sum.text_splice_ms, "ms");
  report->Metric("text.churn_measure_calls", replay_sum.text_splice_calls,
                 "count");
  report->Metric("schema.universe_clone_ms", replay_sum.universe_clone_ms,
                 "ms");
  report->Metric("dynamic.apply_events_ms", replay_sum.apply_events_ms, "ms");
  report->Metric("dynamic.dirty_sources", replay_sum.dirty_sources / steps,
                 "count");
  report->Metric("core.fork_ms", replay_sum.fork_ms, "ms");
  report->Metric("core.apply_delta_ms", replay_sum.apply_delta_ms, "ms");
  report->Metric("snapshot.publish_p50_ms", Median(publish_ms), "ms");
  report->Metric("serving.lease_us", Median(lease_us), "us");

  // Attribution: the publishes by their replayed steps, the runs by the
  // traced solves' self times.
  double publish_total = 0.0;
  for (double ms : publish_ms) publish_total += ms;
  const double publish_parts = replay_sum.PartsMs();
  const double traced_total = publish_total + solve_sum.total_ms;
  const double unattributed =
      (publish_total - publish_parts) + solve_sum.UnattributedMs();
  report->Metric("bench.trace_overhead_frac",
                 Ratio(solve_sum.total_ms - untraced_run_ms, untraced_run_ms),
                 "ratio");
  report->Metric("bench.unattributed_frac", Ratio(unattributed, traced_total),
                 "ratio");
  report->Check(std::abs(unattributed) <= 0.15 * traced_total,
                "web_churn: layer self times account for the traced steps "
                "within 15%");
}

}  // namespace mube::perfbench
