#ifndef MUBE_CORE_MUBE_H_
#define MUBE_CORE_MUBE_H_

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/thread_annotations.h"
#include "common/threading.h"
#include "core/config.h"
#include "match/matcher.h"
#include "metrics/metrics.h"
#include "opt/problem.h"
#include "schema/mediated_schema.h"
#include "schema/universe.h"
#include "sketch/signature_cache.h"
#include "text/similarity.h"
#include "text/similarity_source.h"

/// \file mube.h
/// The µBE engine (paper Figure 2): given a universe of source
/// descriptions, repeatedly solve the user's constrained optimization
/// problem. Construction performs the one-off heavy lifting — the pairwise
/// similarity store (dense matrix or sparse blocked index, selected by
/// MubeConfig::similarity_index) and the per-source PCSA signature cache —
/// after which each Run() (one µBE iteration) only clusters, sketccaches,
/// and searches.

namespace mube {

struct ChurnDelta;

/// \brief Per-run user inputs: the constraints C and G, plus optional
/// overrides of config knobs the user dials between iterations.
struct RunSpec {
  /// Source constraints C (ids into the universe). Need not be sorted.
  std::vector<uint32_t> source_constraints;
  /// GA constraints G — a partial mediated schema the output must subsume.
  MediatedSchema ga_constraints;
  /// Overrides of the engine config for this run (nullopt = use config).
  std::optional<std::vector<double>> weights;
  std::optional<double> theta;
  std::optional<size_t> max_sources;
  std::optional<uint64_t> seed;
  std::optional<std::string> optimizer;
  /// Overrides the optimizer's evaluation budget for this run. Constrained
  /// problems have smaller neighborhoods ((m − |C|) free slots), so callers
  /// running comparative sweeps typically scale the budget down with the
  /// constraint count, as classic full-neighborhood tabu search would.
  std::optional<size_t> max_evaluations;
  /// Warm-start hint: a previous solution to seed the search from (see
  /// src/dynamic/re_optimizer.h). Repaired, not trusted — dead or duplicate
  /// members are evicted and the set refilled to the target size. Honored
  /// by tabu and sls; other solvers ignore it.
  std::optional<std::vector<uint32_t>> initial_solution;
  /// Observed per-source health in [0, 1] fed back from the reliability
  /// layer (1 = every scan succeeded, 0 = breaker permanently open; sources
  /// never executed against are omitted and count as healthy). When
  /// non-empty, an extra "health" QEF (SourceHealthQef) is appended with
  /// weight `health_weight` and the configured QEF weights are scaled by
  /// (1 − health_weight), so Q still sums weights to 1 and open-breaker
  /// sources are penalized in selection instead of merely reported.
  std::map<uint32_t, double> source_health;
  /// Weight of the appended health QEF; must be in [0, 1). Ignored when
  /// `source_health` is empty.
  double health_weight = 0.1;
};

/// \brief One µBE answer.
struct MubeResult {
  /// The chosen sources S, their mediated schema M, Q(S), and all F_i(S).
  SolutionEval solution;
  /// Wall-clock seconds spent inside Run().
  double elapsed_seconds = 0.0;
  /// Distinct subsets whose Match(S) was computed (cache misses) — the
  /// paper's dominant cost driver.
  size_t distinct_subsets_matched = 0;
  /// Names of the QEFs, parallel to solution.qef_values.
  std::vector<std::string> qef_names;
};

/// \brief The engine. Create once per universe; Run once per iteration.
class Mube {
 public:
  /// Builds the engine: similarity measure + matrix, signature cache,
  /// matcher. `universe` must outlive the engine.
  static Result<std::unique_ptr<Mube>> Create(const Universe* universe,
                                              MubeConfig config);

  Mube(const Mube&) = delete;
  Mube& operator=(const Mube&) = delete;

  /// Solves one iteration's problem.
  Result<MubeResult> Run(const RunSpec& spec) const;

  /// \brief Per-portfolio-member warm start for RunAlternatives: seed
  /// attempt i from its own previous incumbent with a reduced budget, the
  /// way the ReOptimizer warm-starts the main run after churn.
  struct AlternativeSeed {
    /// Previous incumbent of this portfolio slot (repaired, not trusted —
    /// same WarmStartSubset rules as RunSpec::initial_solution). Empty =
    /// this slot starts cold.
    std::vector<uint32_t> initial_solution;
    /// Evaluation budget for this slot; 0 = keep the spec's budget.
    size_t max_evaluations = 0;
  };

  /// Runs a portfolio of `attempts` independently seeded searches and
  /// returns the distinct solutions found, best first (at most `attempts`,
  /// fewer after dedup). Exploration aid for the §6 loop: near-optimal
  /// *alternatives* often differ in interesting ways (a different big
  /// source, a different variant family), and showing the user several is
  /// how a best-effort tool earns trust. Fails only if every attempt
  /// fails; individual infeasible attempts are dropped.
  ///
  /// `warm_seeds` (optional) warm-starts portfolio member i from
  /// warm_seeds[i]: after small churn each member resumes from its own
  /// previous incumbent instead of re-solving from scratch (Session plans
  /// the seeds via ReOptimizer). Members beyond warm_seeds.size() — and
  /// members whose seed is empty — run cold under the spec's budget.
  Result<std::vector<MubeResult>> RunAlternatives(
      const RunSpec& spec, size_t attempts,
      const std::vector<AlternativeSeed>& warm_seeds = {}) const;

  /// Forks the engine onto `universe`, which must hold content identical to
  /// this engine's universe at fork time (the serving layer clones the
  /// catalog first — see Universe::Clone). The fork copies the similarity
  /// store (via CloneSource: the dense matrix's buffer, or pointers to the
  /// sparse index's shared buffers) and clones the signature cache instead
  /// of recomputing them, so forking costs a copy of derived state rather
  /// than a similarity (re)build or a re-scan of source data; the caller
  /// then applies churn to the fork via ApplyDelta. The similarity measure
  /// and the metrics registry attachment are shared; forking credits no
  /// metric. This is the copy-on-write step of the epoch snapshot manager.
  Result<std::unique_ptr<Mube>> Fork(const Universe* universe) const;

  /// Attaches a metrics registry: Run/ApplyDelta then record the engine's
  /// hot-path counters (Match(S) memo hits/misses, sketch-union memo
  /// hits/misses, similarity measure calls, optimizer evaluations, run
  /// latency, churn delta sizes) under `prefix` (e.g. "mube"). The
  /// registry must outlive the engine. Call before the first Run; the
  /// instrumentation resolves its handles once, so the hot path performs
  /// no registry lookups. Attaching credits the similarity store's last
  /// operation (the initial build) once; a Fork binds the parent's
  /// registry without crediting the copied state again. Null detaches.
  void AttachMetrics(MetricsRegistry* registry,
                     const std::string& prefix = "mube");

  /// Reconciles the engine's derived state (similarity matrix, signature
  /// cache) with a universe that was mutated by churn, incrementally:
  /// only pairs/sketches touching a source in `delta` are recomputed. The
  /// one exception is a corpus-derived similarity measure (tfidf_cosine),
  /// whose document frequencies shift under any schema change — there the
  /// measure and the full matrix are rebuilt in place. Call after every
  /// applied churn batch and before the next Run.
  Status ApplyDelta(const ChurnDelta& delta);

  const Universe& universe() const { return *universe_; }
  const MubeConfig& config() const { return config_; }
  const SimilaritySource& similarity() const { return *similarity_; }
  const SignatureCache& signatures() const { return *signatures_; }
  const Matcher& matcher() const { return *matcher_; }

 private:
  Mube(const Universe* universe, MubeConfig config);

  /// Resolved metric handles — one registry lookup each at AttachMetrics,
  /// zero on the hot path. All pointers null when metrics are detached.
  struct EngineMetrics {
    Counter* runs = nullptr;
    Counter* evaluations = nullptr;
    Counter* match_calls = nullptr;
    Counter* match_memo_hits = nullptr;
    Counter* match_memo_misses = nullptr;
    Counter* union_memo_hits = nullptr;
    Counter* union_memo_misses = nullptr;
    Counter* union_memo_evictions = nullptr;
    Counter* union_memo_invalidations = nullptr;
    Counter* measure_calls = nullptr;
    Counter* candidate_pairs = nullptr;
    Counter* pruned_pairs = nullptr;
    Gauge* index_memory_bytes = nullptr;
    Counter* churn_batches = nullptr;
    Histogram* churn_delta_sources = nullptr;
    Histogram* run_seconds = nullptr;
  };

  /// Resolves the metric handles under `prefix` (all null when `registry`
  /// is null) and takes the union-memo baseline, crediting nothing.
  void BindMetrics(MetricsRegistry* registry, const std::string& prefix);

  /// Folds the similarity store's blocking tallies (candidate/pruned pairs
  /// from the last build or churn op; 0 on the dense matrix) and current
  /// footprint into the registry. No-op when metrics are detached.
  void RecordIndexMetrics() const;

  /// Folds the engine-cumulative union-memo counters into the registry as
  /// deltas since the previous scrape (Run may be called concurrently from
  /// many serving workers; the scrape state is lock-protected).
  void ScrapeUnionMemo() const;

  const Universe* universe_;
  MubeConfig config_;
  /// Immutable, so forks share it (see Fork); the sparse index's At()
  /// fallback keeps a pointer to it.
  std::shared_ptr<const SimilarityMeasure> measure_;
  std::unique_ptr<SimilaritySource> similarity_;
  std::unique_ptr<SignatureCache> signatures_;
  std::unique_ptr<Matcher> matcher_;

  MetricsRegistry* metrics_registry_ = nullptr;
  std::string metrics_prefix_;
  EngineMetrics metrics_;
  mutable Mutex scrape_mu_;
  mutable SignatureCache::MemoStats last_union_stats_ GUARDED_BY(scrape_mu_);
};

}  // namespace mube

#endif  // MUBE_CORE_MUBE_H_
