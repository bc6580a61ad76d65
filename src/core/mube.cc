#include "core/mube.h"

#include <algorithm>
#include <unordered_set>

#include "common/hash.h"
#include "common/timer.h"
#include "dynamic/churn.h"
#include "qef/characteristic_qef.h"
#include "qef/data_qefs.h"
#include "qef/health_qef.h"
#include "qef/match_qef.h"
#include "text/similarity_matrix.h"
#include "text/sparse_similarity.h"

namespace mube {

Mube::Mube(const Universe* universe, MubeConfig config)
    : universe_(universe), config_(std::move(config)) {}

Result<std::unique_ptr<Mube>> Mube::Create(const Universe* universe,
                                           MubeConfig config) {
  if (universe == nullptr || universe->empty()) {
    return Status::InvalidArgument("Mube: null or empty universe");
  }
  MUBE_RETURN_IF_ERROR(config.Validate());

  std::unique_ptr<Mube> mube(new Mube(universe, std::move(config)));

  if (mube->config_.similarity_measure == "tfidf_cosine") {
    mube->measure_ = TfIdfCosineSimilarity::FromUniverse(*universe);
  } else {
    MUBE_ASSIGN_OR_RETURN(
        mube->measure_, MakeSimilarityMeasure(mube->config_.similarity_measure));
  }
  // Select the similarity store. The dense matrix is exact at any θ but
  // O(|A|²); the sparse blocked index scales to internet-size universes
  // but needs a token-set measure and bounds Match's θ from below (see
  // SimilaritySource::neighbor_floor).
  const std::string& index_mode = mube->config_.similarity_index;
  bool use_sparse = false;
  if (index_mode == "sparse") {
    if (!mube->measure_->SupportsPreparedTokens()) {
      return Status::InvalidArgument(
          "similarity_index=sparse requires a measure with prepared-token "
          "support (3-gram Jaccard/Dice); '" +
          mube->config_.similarity_measure + "' has none");
    }
    use_sparse = true;
  } else if (index_mode == "auto") {
    use_sparse = mube->measure_->SupportsPreparedTokens() &&
                 universe->total_attribute_count() >=
                     mube->config_.sparse_attr_threshold;
  } else if (index_mode != "dense") {
    return Status::InvalidArgument(
        "similarity_index must be auto|dense|sparse, got '" + index_mode +
        "'");
  }
  if (use_sparse) {
    mube->similarity_ = std::make_unique<SparseSimilarityIndex>(
        *universe, *mube->measure_, mube->config_.sparse_options,
        mube->config_.similarity_threads);
  } else {
    mube->similarity_ = std::make_unique<SimilarityMatrix>(
        *universe, *mube->measure_, mube->config_.similarity_threads);
  }
  mube->signatures_ = std::make_unique<SignatureCache>(
      *universe, mube->config_.pcsa, mube->config_.signature_fetch_hook);
  mube->matcher_ = std::make_unique<Matcher>(*universe, *mube->similarity_);
  return mube;
}

Result<std::unique_ptr<Mube>> Mube::Fork(const Universe* universe) const {
  if (universe == nullptr || universe->empty()) {
    return Status::InvalidArgument("Fork: null or empty universe");
  }
  std::unique_ptr<Mube> fork(new Mube(universe, config_));
  // The measure is shared, not recreated: it is immutable, tfidf's corpus
  // is the cloned universe's (identical at fork time), and ApplyDelta gives
  // a tfidf fork a measure of its own. Sharing keeps the sparse clone's
  // At() fallback pointing at a live measure however long the parent lives.
  fork->measure_ = measure_;
  // The expensive derived state is copied, not recomputed: the dense
  // similarity triangle is one flat buffer, the sparse index shares its
  // immutable buffers with the parent (a churn of the fork writes new ones
  // beside them), and the signature cache deep-copies its sketches. This
  // is what makes epoch forking affordable at serving rates.
  fork->similarity_ = similarity_->CloneSource();
  fork->signatures_ = signatures_->Clone();
  fork->matcher_ = std::make_unique<Matcher>(*universe, *fork->similarity_);
  // The fork's derived state is a copy of the parent's, whose work the
  // registry already holds: bind the handles but credit nothing.
  fork->BindMetrics(metrics_registry_, metrics_prefix_);
  return fork;
}

void Mube::AttachMetrics(MetricsRegistry* registry,
                         const std::string& prefix) {
  BindMetrics(registry, prefix);
  if (registry == nullptr) return;
  // The initial similarity build already spent its measure calls; credit
  // them now so the counter reflects total work, not just churn deltas.
  metrics_.measure_calls->Increment(similarity_->last_measure_calls());
  RecordIndexMetrics();
}

void Mube::BindMetrics(MetricsRegistry* registry, const std::string& prefix) {
  metrics_registry_ = registry;
  metrics_prefix_ = prefix;
  if (registry == nullptr) {
    metrics_ = EngineMetrics();
    return;
  }
  const std::string& p = prefix;
  metrics_.runs = registry->GetCounter(p + "_runs_total",
                                       "engine iterations executed");
  metrics_.evaluations =
      registry->GetCounter(p + "_optimizer_evaluations_total",
                           "solution evaluations spent by the optimizer");
  metrics_.match_calls = registry->GetCounter(
      p + "_match_calls_total", "Match(S) requests (memoized or not)");
  metrics_.match_memo_hits = registry->GetCounter(
      p + "_match_memo_hits_total", "Match(S) answered from the memo");
  metrics_.match_memo_misses = registry->GetCounter(
      p + "_match_memo_misses_total", "Match(S) actually executed");
  metrics_.union_memo_hits = registry->GetCounter(
      p + "_union_memo_hits_total", "sketch-union estimates from the memo");
  metrics_.union_memo_misses = registry->GetCounter(
      p + "_union_memo_misses_total", "sketch-union estimates merged fresh");
  metrics_.union_memo_evictions = registry->GetCounter(
      p + "_union_memo_evictions_total", "union memo entries evicted by cap");
  metrics_.union_memo_invalidations =
      registry->GetCounter(p + "_union_memo_invalidations_total",
                           "union memo entries invalidated by churn");
  metrics_.measure_calls = registry->GetCounter(
      p + "_measure_calls_total",
      "pairwise similarity evaluations (build + churn maintenance)");
  metrics_.candidate_pairs = registry->GetCounter(
      p + "_similarity_candidate_pairs_total",
      "pairs nominated by blocking and exactly verified (sparse index "
      "builds + churn; 0 under the dense matrix)");
  metrics_.pruned_pairs = registry->GetCounter(
      p + "_similarity_pruned_pairs_total",
      "comparable pairs skipped without scoring by gram/LSH blocking "
      "(sparse index; 0 under the dense matrix)");
  metrics_.index_memory_bytes = registry->GetGauge(
      p + "_similarity_index_memory_bytes",
      "resident bytes of the similarity store (dense triangle or sparse "
      "postings+LSH+rows)");
  metrics_.churn_batches = registry->GetCounter(
      p + "_churn_batches_total", "churn deltas applied to derived state");
  metrics_.churn_delta_sources = registry->GetHistogram(
      p + "_churn_delta_sources",
      Histogram::ExponentialBuckets(1.0, 2.0, 12),
      "dirty sources per applied churn delta");
  metrics_.run_seconds = registry->GetHistogram(
      p + "_run_seconds", Histogram::ExponentialBuckets(0.001, 2.0, 16),
      "wall-clock seconds per engine Run");
  MutexLock lock(&scrape_mu_);
  last_union_stats_ = signatures_->memo_stats();
}

void Mube::RecordIndexMetrics() const {
  if (metrics_.index_memory_bytes == nullptr) return;
  metrics_.index_memory_bytes->Set(
      static_cast<double>(similarity_->MemoryBytes()));
  // The tallies describe the last build/churn op, which is exactly what
  // each call here follows.
  metrics_.candidate_pairs->Increment(similarity_->last_candidate_pairs());
  metrics_.pruned_pairs->Increment(similarity_->last_pruned_pairs());
}

void Mube::ScrapeUnionMemo() const {
  if (metrics_.union_memo_hits == nullptr) return;
  // The cache counters are engine-cumulative and shared across concurrent
  // Runs; fold only the delta since the previous scrape so the registry's
  // totals stay exact under any interleaving. The snapshot is taken under
  // scrape_mu_ so two concurrent scrapes cannot apply out of order (which
  // would underflow the unsigned deltas).
  MutexLock lock(&scrape_mu_);
  const SignatureCache::MemoStats now = signatures_->memo_stats();
  metrics_.union_memo_hits->Increment(now.hits - last_union_stats_.hits);
  metrics_.union_memo_misses->Increment(now.misses - last_union_stats_.misses);
  metrics_.union_memo_evictions->Increment(now.evictions -
                                           last_union_stats_.evictions);
  metrics_.union_memo_invalidations->Increment(
      now.invalidations - last_union_stats_.invalidations);
  last_union_stats_ = now;
}

Result<MubeResult> Mube::Run(const RunSpec& spec) const {
  WallTimer timer;

  // Resolve per-run overrides.
  const double theta = spec.theta.value_or(config_.theta);
  const size_t max_sources = spec.max_sources.value_or(config_.max_sources);
  std::vector<double> weights =
      spec.weights.has_value() ? *spec.weights : config_.Weights();
  if (weights.size() != config_.qefs.size()) {
    return Status::InvalidArgument(
        "RunSpec: weight count does not match configured QEFs");
  }
  OptimizerOptions opt_options = config_.optimizer_options;
  if (spec.seed.has_value()) opt_options.seed = *spec.seed;
  if (spec.max_evaluations.has_value()) {
    opt_options.max_evaluations = *spec.max_evaluations;
    if (opt_options.patience > 0) {
      opt_options.patience = std::max<size_t>(1, *spec.max_evaluations / 3);
    }
  }
  if (spec.initial_solution.has_value()) {
    opt_options.initial_solution = *spec.initial_solution;
  }
  const std::string optimizer_name =
      spec.optimizer.value_or(config_.optimizer);

  // Effective source constraints: C plus sources implied by G (§2.4).
  std::vector<uint32_t> constraints = spec.source_constraints;
  for (uint32_t sid : spec.ga_constraints.TouchedSources()) {
    constraints.push_back(sid);
  }
  std::sort(constraints.begin(), constraints.end());
  constraints.erase(std::unique(constraints.begin(), constraints.end()),
                    constraints.end());
  for (uint32_t sid : constraints) {
    if (sid >= universe_->size()) {
      return Status::InvalidArgument("constraint source id out of range: " +
                                     std::to_string(sid));
    }
  }
  if (!spec.ga_constraints.IsWellFormed() &&
      !spec.ga_constraints.empty()) {
    return Status::InvalidArgument("GA constraints are not well-formed");
  }

  // Assemble the QEFs. The match QEF is instantiated per run because it
  // bakes in θ and the constraints; the data QEFs are thin wrappers over
  // the shared caches.
  MatchOptions match_options;
  match_options.theta = theta;
  match_options.beta = config_.beta;
  auto match_qef = std::make_unique<MatchQualityQef>(
      *matcher_, match_options, constraints, spec.ga_constraints);
  const MatchQualityQef* match_qef_ptr = match_qef.get();

  // Reliability feedback: when the caller supplies observed health scores,
  // the health QEF joins the quality function and everything else yields a
  // proportional share of the weight mass.
  const bool use_health =
      !spec.source_health.empty() && spec.health_weight > 0.0;
  if (use_health && spec.health_weight >= 1.0) {
    return Status::InvalidArgument("RunSpec: health_weight must be in [0,1)");
  }
  const double weight_scale = use_health ? 1.0 - spec.health_weight : 1.0;

  QefSet qefs;
  for (size_t i = 0; i < config_.qefs.size(); ++i) {
    const QefSpec& qspec = config_.qefs[i];
    std::unique_ptr<Qef> qef;
    switch (qspec.kind) {
      case QefSpec::Kind::kMatching:
        if (match_qef == nullptr) {
          return Status::InvalidArgument(
              "MubeConfig: multiple matching QEFs");
        }
        qef = std::move(match_qef);
        break;
      case QefSpec::Kind::kCardinality:
        qef = std::make_unique<CardQef>(*universe_);
        break;
      case QefSpec::Kind::kCoverage:
        qef = std::make_unique<CoverageQef>(*universe_, *signatures_);
        break;
      case QefSpec::Kind::kRedundancy:
        // invert = reward overlap: select *for* replication (availability)
        // instead of against it (transfer overhead).
        qef = std::make_unique<RedundancyQef>(*universe_, *signatures_,
                                              qspec.invert);
        break;
      case QefSpec::Kind::kCharacteristic: {
        MUBE_ASSIGN_OR_RETURN(std::unique_ptr<Aggregator> aggregator,
                              MakeAggregator(qspec.aggregator));
        qef = std::make_unique<CharacteristicQef>(
            *universe_, qspec.characteristic, std::move(aggregator),
            qspec.invert);
        break;
      }
    }
    MUBE_RETURN_IF_ERROR(qefs.Add(std::move(qef), weights[i] * weight_scale));
  }
  if (use_health) {
    MUBE_RETURN_IF_ERROR(
        qefs.Add(std::make_unique<SourceHealthQef>(spec.source_health),
                 spec.health_weight));
  }
  MUBE_RETURN_IF_ERROR(qefs.ValidateWeights());

  Problem problem;
  problem.universe = universe_;
  problem.qefs = &qefs;
  problem.match_qef = match_qef_ptr;
  problem.effective_constraints = std::move(constraints);
  problem.max_sources = max_sources;
  MUBE_RETURN_IF_ERROR(problem.Validate());

  // When nobody asked for a trace, attach a local one anyway so the
  // evaluations metric reads the optimizer's budget meter directly.
  SearchTrace local_trace;
  if (opt_options.trace == nullptr && metrics_.runs != nullptr) {
    opt_options.trace = &local_trace;
  }

  MUBE_ASSIGN_OR_RETURN(std::unique_ptr<Optimizer> optimizer,
                        MakeOptimizer(optimizer_name, opt_options));
  MUBE_ASSIGN_OR_RETURN(SolutionEval best, optimizer->Run(problem));

  MubeResult result;
  result.solution = std::move(best);
  result.elapsed_seconds = timer.ElapsedSeconds();
  result.distinct_subsets_matched = match_qef_ptr->cache_size();
  for (const QefSpec& qspec : config_.qefs) {
    result.qef_names.push_back(qspec.DisplayName());
  }
  if (use_health) result.qef_names.push_back("health");

  if (metrics_.runs != nullptr) {
    metrics_.runs->Increment();
    if (opt_options.trace != nullptr) {
      metrics_.evaluations->Increment(opt_options.trace->evaluations);
    }
    // The match memo is per-run (fresh QEF each Run), so its cumulative
    // stats ARE this run's contribution — no delta-scraping needed.
    const MatchQualityQef::MemoStats match_stats = match_qef_ptr->memo_stats();
    metrics_.match_calls->Increment(match_stats.hits + match_stats.misses);
    metrics_.match_memo_hits->Increment(match_stats.hits);
    metrics_.match_memo_misses->Increment(match_stats.misses);
    ScrapeUnionMemo();
    metrics_.run_seconds->Observe(result.elapsed_seconds);
  }
  return result;
}

Status Mube::ApplyDelta(const ChurnDelta& delta) {
  if (delta.empty()) return Status::OK();
  if (config_.similarity_measure == "tfidf_cosine") {
    // Document frequencies are corpus-wide: any schema change moves every
    // idf weight, so every pair is dirty. Rebuild in place (the Matcher
    // holds a reference to the matrix, which must stay put).
    measure_ = TfIdfCosineSimilarity::FromUniverse(*universe_);
    similarity_->Rebuild(*universe_, *measure_, config_.similarity_threads);
  } else {
    similarity_->ApplyChurn(*universe_, *measure_,
                            delta.DirtySchemaSources(),
                            config_.similarity_threads);
  }
  signatures_->ApplyChurn(*universe_, delta.DirtyDataSources());
  if (metrics_.churn_batches != nullptr) {
    metrics_.churn_batches->Increment();
    metrics_.churn_delta_sources->Observe(
        static_cast<double>(delta.DirtySchemaSources().size()));
    metrics_.measure_calls->Increment(similarity_->last_measure_calls());
    RecordIndexMetrics();
    ScrapeUnionMemo();  // churn invalidations land in the registry promptly
  }
  return Status::OK();
}

Result<std::vector<MubeResult>> Mube::RunAlternatives(
    const RunSpec& spec, size_t attempts,
    const std::vector<AlternativeSeed>& warm_seeds) const {
  if (attempts == 0) {
    return Status::InvalidArgument("RunAlternatives: attempts must be >= 1");
  }
  std::vector<MubeResult> alternatives;
  std::unordered_set<uint64_t> seen;
  Status last_error = Status::OK();
  const uint64_t base_seed =
      spec.seed.value_or(config_.optimizer_options.seed);
  for (size_t i = 0; i < attempts; ++i) {
    RunSpec attempt = spec;
    attempt.seed = base_seed + i * 0x9e3779b9ULL;
    if (i < warm_seeds.size() && !warm_seeds[i].initial_solution.empty()) {
      // This slot resumes from its own previous incumbent (ReOptimizer-
      // planned after churn); the per-attempt seed still differs, so warm
      // members explore different neighborhoods of their start points.
      attempt.initial_solution = warm_seeds[i].initial_solution;
      if (warm_seeds[i].max_evaluations > 0) {
        attempt.max_evaluations = warm_seeds[i].max_evaluations;
      }
    }
    Result<MubeResult> result = Run(attempt);
    if (!result.ok()) {
      last_error = result.status();
      continue;
    }
    const uint64_t key =
        SetFingerprint(result.ValueOrDie().solution.sources);
    if (seen.insert(key).second) {
      alternatives.push_back(result.MoveValueUnsafe());
    }
  }
  if (alternatives.empty()) {
    return last_error.ok()
               ? Status::Infeasible("no attempt found a feasible solution")
               : last_error;
  }
  std::sort(alternatives.begin(), alternatives.end(),
            [](const MubeResult& a, const MubeResult& b) {
              return a.solution.overall > b.solution.overall;
            });
  return alternatives;
}

}  // namespace mube
