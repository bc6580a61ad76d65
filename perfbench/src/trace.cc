#include "trace.h"

#include <algorithm>
#include <cstring>
#include <memory>
#include <set>
#include <string>
#include <utility>

#include "dynamic/churn.h"
#include "dynamic/delta_universe.h"
#include "opt/optimizer.h"
#include "qef/characteristic_qef.h"
#include "qef/data_qefs.h"
#include "qef/match_qef.h"
#include "report.h"
#include "sketch/signature_cache.h"
#include "text/similarity.h"

namespace mube::perfbench {

namespace {

/// Times every Evaluate of the wrapped Qef. The optimizer runs at one
/// thread here, so plain members suffice. The matching decorator also
/// records the distinct subsets it sees: EvaluateAll only reaches the QEFs
/// for subsets Match(S) found feasible, so these are exactly the feasible
/// distinct subsets of the solve.
class TimedQef : public Qef {
 public:
  TimedQef(std::unique_ptr<Qef> inner, bool record_subsets)
      : inner_(std::move(inner)), record_subsets_(record_subsets) {}

  double Evaluate(const std::vector<uint32_t>& source_ids) const override {
    const WallTimer timer;
    const double value = inner_->Evaluate(source_ids);
    busy_s_ += timer.ElapsedSeconds();
    if (record_subsets_) subsets_.insert(source_ids);
    return value;
  }
  std::string name() const override { return inner_->name(); }

  double busy_ms() const { return busy_s_ * 1e3; }
  void ResetBusy() { busy_s_ = 0.0; }
  const std::set<std::vector<uint32_t>>& subsets() const { return subsets_; }

 private:
  std::unique_ptr<Qef> inner_;
  bool record_subsets_;
  mutable double busy_s_ = 0.0;
  mutable std::set<std::vector<uint32_t>> subsets_;
};

/// The per-iteration knobs Mube::Run resolves from (config, spec).
struct ResolvedSpec {
  double theta;
  size_t max_sources;
  std::vector<double> weights;
  OptimizerOptions options;
  std::string optimizer;
  std::vector<uint32_t> constraints;
};

ResolvedSpec Resolve(const MubeConfig& config, const RunSpec& spec) {
  ResolvedSpec r;
  r.theta = spec.theta.value_or(config.theta);
  r.max_sources = spec.max_sources.value_or(config.max_sources);
  r.weights = spec.weights.value_or(config.Weights());
  r.options = config.optimizer_options;
  if (spec.seed.has_value()) r.options.seed = *spec.seed;
  if (spec.max_evaluations.has_value()) {
    r.options.max_evaluations = *spec.max_evaluations;
    if (r.options.patience > 0) {
      r.options.patience = std::max<size_t>(1, *spec.max_evaluations / 3);
    }
  }
  if (spec.initial_solution.has_value()) {
    r.options.initial_solution = *spec.initial_solution;
  }
  r.optimizer = spec.optimizer.value_or(config.optimizer);
  r.constraints = spec.source_constraints;
  for (uint32_t sid : spec.ga_constraints.TouchedSources()) {
    r.constraints.push_back(sid);
  }
  std::sort(r.constraints.begin(), r.constraints.end());
  r.constraints.erase(std::unique(r.constraints.begin(), r.constraints.end()),
                      r.constraints.end());
  return r;
}

using Row = std::vector<std::pair<uint32_t, uint32_t>>;

Row NeighborRow(const SimilaritySource& sim, size_t i) {
  Row row;
  sim.ForEachNeighborAtLeast(i, sim.neighbor_floor(), [&](size_t j, float s) {
    uint32_t bits;
    std::memcpy(&bits, &s, sizeof(bits));
    row.emplace_back(static_cast<uint32_t>(j), bits);
  });
  return row;
}

}  // namespace

double SolveTrace::SelfMs() const {
  double sum = opt_self_ms + match_miss_ms;
  for (double busy : qef_busy_ms) sum += busy;
  return sum;
}

void SolveTrace::Add(const SolveTrace& other) {
  total_ms += other.total_ms;
  for (size_t k = 0; k < qef_busy_ms.size(); ++k) {
    qef_busy_ms[k] += other.qef_busy_ms[k];
  }
  opt_self_ms += other.opt_self_ms;
  match_miss_ms += other.match_miss_ms;
  match_replayed += other.match_replayed;
  match_hits += other.match_hits;
  match_misses += other.match_misses;
  evaluations += other.evaluations;
  union_miss_ms += other.union_miss_ms;
  union_replayed += other.union_replayed;
}

void ReportSolveLayers(const SolveTrace& sum, Report* report) {
  report->Metric("opt.self_ms", sum.opt_self_ms, "ms");
  report->Metric("match.miss_ms", sum.match_miss_ms, "ms");
  report->Metric("match.busy_ms", sum.match_miss_ms + sum.qef_busy_ms[0],
                 "ms");
  report->Metric("match.feasible_ratio",
                 Ratio(static_cast<double>(sum.match_replayed),
                       static_cast<double>(sum.match_misses)),
                 "ratio");
  for (size_t k = 0; k < kQefKindNames.size(); ++k) {
    report->Metric(std::string("qef.") + kQefKindNames[k] + ".busy_ms",
                   sum.qef_busy_ms[k], "ms");
  }
  report->Metric("sketch.union_miss_us",
                 Ratio(sum.union_miss_ms * 1e3,
                       static_cast<double>(sum.union_replayed)),
                 "us");
}

Result<SolveTrace> TracedSolve(const Mube& engine, const RunSpec& spec) {
  if (!spec.source_health.empty()) {
    return Status::InvalidArgument(
        "traced re-solve does not model health feedback");
  }
  const MubeConfig& config = engine.config();
  const Universe& universe = engine.universe();
  const ResolvedSpec r = Resolve(config, spec);
  if (r.weights.size() != config.qefs.size()) {
    return Status::InvalidArgument("weight count does not match QEFs");
  }

  MatchOptions match_options;
  match_options.theta = r.theta;
  match_options.beta = config.beta;
  auto match_qef = std::make_unique<MatchQualityQef>(
      engine.matcher(), match_options, r.constraints, spec.ga_constraints);
  const MatchQualityQef* match_ptr = match_qef.get();

  QefSet qefs;
  std::array<TimedQef*, 5> timed{};
  for (size_t i = 0; i < config.qefs.size(); ++i) {
    const QefSpec& qspec = config.qefs[i];
    std::unique_ptr<Qef> qef;
    switch (qspec.kind) {
      case QefSpec::Kind::kMatching:
        if (match_qef == nullptr) {
          return Status::InvalidArgument("multiple matching QEFs");
        }
        qef = std::move(match_qef);
        break;
      case QefSpec::Kind::kCardinality:
        qef = std::make_unique<CardQef>(universe);
        break;
      case QefSpec::Kind::kCoverage:
        qef = std::make_unique<CoverageQef>(universe, engine.signatures());
        break;
      case QefSpec::Kind::kRedundancy:
        qef = std::make_unique<RedundancyQef>(universe, engine.signatures(),
                                              qspec.invert);
        break;
      case QefSpec::Kind::kCharacteristic: {
        MUBE_ASSIGN_OR_RETURN(std::unique_ptr<Aggregator> aggregator,
                              MakeAggregator(qspec.aggregator));
        qef = std::make_unique<CharacteristicQef>(
            universe, qspec.characteristic, std::move(aggregator),
            qspec.invert);
        break;
      }
    }
    const size_t kind = static_cast<size_t>(qspec.kind);
    if (timed[kind] != nullptr) {
      return Status::InvalidArgument("two QEFs of one kind are not traced");
    }
    auto wrapped = std::make_unique<TimedQef>(
        std::move(qef), qspec.kind == QefSpec::Kind::kMatching);
    timed[kind] = wrapped.get();
    MUBE_RETURN_IF_ERROR(qefs.Add(std::move(wrapped), r.weights[i]));
  }
  MUBE_RETURN_IF_ERROR(qefs.ValidateWeights());

  Problem problem;
  problem.universe = &universe;
  problem.qefs = &qefs;
  problem.match_qef = match_ptr;
  problem.effective_constraints = r.constraints;
  problem.max_sources = r.max_sources;
  MUBE_RETURN_IF_ERROR(problem.Validate());

  SolveTrace trace;
  SearchTrace search;
  OptimizerOptions options = r.options;
  options.trace = &search;

  // Cold solve: the one whose wall time the layers must account for.
  {
    MUBE_ASSIGN_OR_RETURN(std::unique_ptr<Optimizer> optimizer,
                          MakeOptimizer(r.optimizer, options));
    const WallTimer watch;
    MUBE_ASSIGN_OR_RETURN(trace.solution, optimizer->Run(problem));
    trace.total_ms = watch.ElapsedMillis();
  }
  trace.evaluations = search.evaluations;
  const MatchQualityQef::MemoStats match_stats = match_ptr->memo_stats();
  trace.match_hits = match_stats.hits;
  trace.match_misses = match_stats.misses;
  for (size_t k = 0; k < timed.size(); ++k) {
    if (timed[k] != nullptr) trace.qef_busy_ms[k] = timed[k]->busy_ms();
  }

  // Warm solve: same seed, same trajectory, every Match(S) a memo hit.
  {
    for (TimedQef* t : timed) {
      if (t != nullptr) t->ResetBusy();
    }
    SearchTrace warm_search;
    OptimizerOptions warm_options = r.options;
    warm_options.trace = &warm_search;
    MUBE_ASSIGN_OR_RETURN(std::unique_ptr<Optimizer> optimizer,
                          MakeOptimizer(r.optimizer, warm_options));
    const WallTimer watch;
    MUBE_ASSIGN_OR_RETURN(SolutionEval warm, optimizer->Run(problem));
    double warm_ms = watch.ElapsedMillis();
    for (TimedQef* t : timed) {
      if (t != nullptr) warm_ms -= t->busy_ms();
    }
    trace.opt_self_ms = std::max(0.0, warm_ms);
    if (!SameAnswer(warm, trace.solution) ||
        warm_search.evaluations != search.evaluations) {
      return Status::Internal("warm re-solve left the cold trajectory");
    }
  }

  // Match(S) misses, replayed over the distinct feasible subsets.
  const std::set<std::vector<uint32_t>>& subsets =
      timed[static_cast<size_t>(QefSpec::Kind::kMatching)]->subsets();
  {
    const WallTimer watch;
    for (const std::vector<uint32_t>& subset : subsets) {
      MUBE_ASSIGN_OR_RETURN(
          MatchResult replayed,
          engine.matcher().Match(subset, match_options, r.constraints,
                                 spec.ga_constraints));
      if (!replayed.feasible) {
        return Status::Internal("replayed Match(S) turned infeasible");
      }
    }
    trace.match_miss_ms = watch.ElapsedMillis();
    trace.match_replayed = subsets.size();
  }

  // Sketch-union misses on a memo-cold copy of the signature cache.
  {
    std::unique_ptr<SignatureCache> cold = engine.signatures().Clone();
    const WallTimer watch;
    double sink = 0.0;
    for (const std::vector<uint32_t>& subset : subsets) {
      sink += cold->EstimateUnion(subset);
    }
    trace.union_miss_ms = watch.ElapsedMillis();
    trace.union_replayed = subsets.size();
    if (sink < 0.0) return Status::Internal("negative union estimate");
  }
  return trace;
}

std::vector<size_t> SampleSlice(const Universe& universe,
                                const std::set<uint32_t>& touched,
                                size_t stride_samples) {
  std::set<size_t> slice;
  for (uint32_t sid : touched) {
    if (sid >= universe.size()) continue;
    for (uint32_t a = 0; a < universe.source(sid).attribute_count(); ++a) {
      slice.insert(universe.GlobalAttrIndex(AttributeRef(sid, a)));
    }
  }
  const size_t n = universe.total_attribute_count();
  const size_t stride = std::max<size_t>(1, n / stride_samples);
  for (size_t i = 0; i < n; i += stride) slice.insert(i);
  return {slice.begin(), slice.end()};
}

bool SameRows(const SimilaritySource& a, const SimilaritySource& b,
              const std::vector<size_t>& slice) {
  if (a.attribute_count() != b.attribute_count()) return false;
  for (size_t i : slice) {
    if (NeighborRow(a, i) != NeighborRow(b, i)) return false;
  }
  return true;
}

PublishReplay ReplayPublish(const SnapshotManager::Lease& base,
                            const SnapshotManager::Lease& published,
                            const std::vector<ChurnEvent>& batch,
                            const std::vector<size_t>& slice) {
  PublishReplay r;
  const Mube& engine = base.engine();
  WallTimer watch;
  DeltaUniverse next(base.universe().Clone());
  r.universe_clone_ms = watch.ElapsedMillis();
  watch.Reset();
  std::unique_ptr<Mube> fork = engine.Fork(&next.universe()).ValueOrDie();
  r.fork_ms = watch.ElapsedMillis();
  ChurnDelta delta;
  watch.Reset();
  const Status applied = next.ApplyAll(batch, &delta);
  r.apply_events_ms = watch.ElapsedMillis();
  if (!applied.ok()) {
    r.matches_published = false;
    return r;
  }
  watch.Reset();
  const Status reconciled = fork->ApplyDelta(delta);
  r.apply_delta_ms = watch.ElapsedMillis();
  if (!reconciled.ok()) {
    r.matches_published = false;
    return r;
  }
  r.dirty_sources = static_cast<double>(delta.DirtySchemaSources().size());

  // The similarity and sketch halves of Fork + ApplyDelta, timed alone.
  std::unique_ptr<SimilarityMeasure> measure =
      MakeSimilarityMeasure(engine.config().similarity_measure).ValueOrDie();
  watch.Reset();
  std::unique_ptr<SimilaritySource> text = engine.similarity().CloneSource();
  r.text_clone_ms = watch.ElapsedMillis();
  watch.Reset();
  text->ApplyChurn(next.universe(), *measure, delta.DirtySchemaSources(),
                   engine.config().similarity_threads);
  r.text_splice_ms = watch.ElapsedMillis();
  r.text_splice_calls = static_cast<double>(text->last_measure_calls());
  std::unique_ptr<SignatureCache> sketches = engine.signatures().Clone();
  watch.Reset();
  sketches->ApplyChurn(next.universe(), delta.DirtyDataSources());
  r.sketch_churn_ms = watch.ElapsedMillis();

  r.matches_published =
      next.universe().size() == published.universe().size() &&
      next.universe().alive_count() == published.universe().alive_count() &&
      SameRows(fork->similarity(), published.engine().similarity(), slice) &&
      SameRows(*text, published.engine().similarity(), slice);
  return r;
}

void PublishReplay::Add(const PublishReplay& other) {
  universe_clone_ms += other.universe_clone_ms;
  fork_ms += other.fork_ms;
  apply_events_ms += other.apply_events_ms;
  apply_delta_ms += other.apply_delta_ms;
  text_clone_ms += other.text_clone_ms;
  text_splice_ms += other.text_splice_ms;
  text_splice_calls += other.text_splice_calls;
  sketch_churn_ms += other.sketch_churn_ms;
  dirty_sources += other.dirty_sources;
  matches_published = matches_published && other.matches_published;
}

bool SameAnswer(const SolutionEval& a, const SolutionEval& b) {
  if (a.sources != b.sources || a.feasible != b.feasible ||
      !(a.schema == b.schema) || a.qef_values.size() != b.qef_values.size()) {
    return false;
  }
  auto same_bits = [](double x, double y) {
    return std::memcmp(&x, &y, sizeof(double)) == 0;
  };
  if (!same_bits(a.overall, b.overall)) return false;
  for (size_t i = 0; i < a.qef_values.size(); ++i) {
    if (!same_bits(a.qef_values[i], b.qef_values[i])) return false;
  }
  return true;
}

}  // namespace mube::perfbench
