#ifndef MUBE_CORE_SESSION_H_
#define MUBE_CORE_SESSION_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/iteration_state.h"
#include "core/mube.h"
#include "dynamic/churn.h"
#include "dynamic/delta_universe.h"
#include "dynamic/re_optimizer.h"
#include "reliability/reliable_executor.h"

/// \file session.h
/// The iterative feedback loop of paper §6: the user runs µBE, inspects the
/// chosen sources and mediated schema, then *edits the output into the next
/// iteration's input* — pinning sources, adopting or hand-writing GA
/// constraints, re-weighting QEFs, moving θ or m — and runs again. Session
/// is the programmatic embodiment of that loop (the GUI in the paper's
/// Figure 4 sits on exactly this surface).
///
/// A session created over a DeltaUniverse additionally rides out source
/// churn: ApplyChurn(events) mutates the catalog and incrementally
/// reconciles the engine's caches, and ReIterate() re-optimizes warm from
/// the previous solution when the churn was small (src/dynamic).

namespace mube {

/// \brief Mutable iteration state around a Mube engine.
class Session {
 public:
  /// Builds the engine and an empty constraint state.
  static Result<std::unique_ptr<Session>> Create(const Universe* universe,
                                                 MubeConfig config);

  /// Builds a churn-capable session over a mutable catalog. `universe`
  /// must outlive the session and must not be mutated behind its back —
  /// ApplyChurn is the only supported write path once the session exists.
  static Result<std::unique_ptr<Session>> Create(DeltaUniverse* universe,
                                                 MubeConfig config);

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// \name Constraint editing (between iterations)
  /// Each edit is validated by IterationState against the session's
  /// catalog (see iteration_state.h for the rules).
  /// @{
  /// Requires source `name`/`id` in the solution (a source constraint).
  Status PinSource(const std::string& name) {
    return state_.PinSource(mube_->universe(), name);
  }
  Status PinSource(uint32_t source_id) {
    return state_.PinSource(mube_->universe(), source_id);
  }
  Status UnpinSource(uint32_t source_id) {
    return state_.UnpinSource(source_id);
  }
  /// Adds a GA constraint. Rejects invalid GAs and GAs on retired sources.
  Status AddGaConstraint(GlobalAttribute ga) {
    return state_.AddGaConstraint(mube_->universe(), std::move(ga));
  }
  /// Parses "source.attr, source.attr, ..." into a GA constraint.
  Status AddGaConstraintFromText(const std::string& line);
  /// Adopts GA `index` of the last result as a constraint — the one-click
  /// "keep this" gesture of the µBE UI.
  Status AdoptGaFromLastResult(size_t index);
  void ClearGaConstraints() { state_.ClearGaConstraints(); }
  void ClearSourcePins() { state_.ClearSourcePins(); }
  /// @}

  /// \name Problem knobs
  /// @{
  Status SetWeights(const std::vector<double>& weights) {
    return state_.SetWeights(mube_->config().qefs.size(), weights);
  }
  Status SetTheta(double theta) { return state_.SetTheta(theta); }
  Status SetMaxSources(size_t max_sources) {
    return state_.SetMaxSources(max_sources);
  }
  void SetSeed(uint64_t seed) { seed_ = seed; }
  Status SetOptimizer(const std::string& name) {
    return state_.SetOptimizer(name);
  }
  /// Weight of the observed-health QEF appended to the quality function
  /// when recorded executions exist (see SourceHealthQef). 0 (the default)
  /// keeps reliability feedback out of selection — health is then only
  /// reported, never optimized for. Must be in [0, 1).
  Status SetHealthBias(double weight) { return state_.SetHealthBias(weight); }
  double health_bias() const { return state_.health_bias(); }
  /// @}

  /// Runs one µBE iteration with the current constraint state and appends
  /// the result to history().
  Result<MubeResult> Iterate();

  /// Runs a portfolio of `attempts` alternative searches under the current
  /// constraint state (see Mube::RunAlternatives) and remembers each
  /// returned solution as its portfolio slot's incumbent. The next call
  /// warm-starts slot i from that incumbent: directly when the catalog is
  /// unchanged, or through a per-slot ReOptimizer plan when churn is
  /// pending (each member's incumbent is repaired and budget-scaled
  /// independently — a member that lost sources to churn may restart cold
  /// while its siblings stay warm). Exploratory: does NOT touch history()
  /// or clear pending churn, so a following ReIterate() still plans
  /// against the full churn since the last committed iteration.
  Result<std::vector<MubeResult>> IterateAlternatives(size_t attempts);

  /// Attaches a metrics registry to this session and its engine: iteration
  /// counts, warm/cold re-optimization decisions, planned re-optimization
  /// budgets, churn event counts, alongside the engine's own hot-path
  /// metrics (see Mube::AttachMetrics). The registry must outlive the
  /// session. Null detaches.
  void SetMetrics(MetricsRegistry* registry,
                  const std::string& prefix = "mube");

  /// \name Source churn (requires the DeltaUniverse constructor)
  /// @{
  /// Applies a batch of churn events to the catalog, incrementally
  /// reconciles the engine's similarity matrix and signature cache, prunes
  /// constraint state referencing removed sources (pins silently; a GA
  /// constraint is dropped whole if any member's source was removed), logs
  /// the applied events, and folds the batch into the pending churn that
  /// the next ReIterate() plans against. On failure the events *before*
  /// the failing one remain applied (and reconciled/logged); the failing
  /// event and everything after it do not.
  Status ApplyChurn(const std::vector<ChurnEvent>& events);

  /// Runs the next iteration warm: seeded from the last result's solution
  /// with a reduced evaluation budget when the pending churn is small
  /// (see ReOptimizer), cold otherwise. Without a previous result or any
  /// pending churn this degrades to a plain Iterate(). A successful
  /// iteration (warm or plain) clears the pending churn.
  Result<MubeResult> ReIterate();

  /// All churn events ever applied through this session, in order —
  /// serialize via ChurnLog for deterministic replay.
  const ChurnLog& churn_log() const { return churn_log_; }

  /// Churn applied since the last successful iteration.
  const ChurnDelta& pending_churn() const { return pending_churn_; }

  void SetReOptimizerOptions(ReOptimizerOptions options) {
    reopt_options_ = options;
  }
  /// @}

  /// \name Execution health (fed by the reliability layer)
  /// @{
  /// Folds one resilient query execution into the session's cumulative
  /// reliability stats and per-source health map — this is how breaker
  /// trips and degraded answers become visible at the same surface where
  /// the user steers the next iteration (pin a replica, re-weight F4...).
  void RecordExecution(const ExecutionReport& report);

  /// Cumulative counters over every recorded execution.
  const ReliabilityStats& reliability_stats() const {
    return reliability_stats_;
  }
  /// Health of each source that has appeared in a recorded execution.
  const std::map<uint32_t, IterationState::SourceHealth>& source_health()
      const {
    return state_.source_health();
  }
  /// The per-source health scores in [0, 1] the next Iterate() will feed
  /// the optimizer when health_bias() > 0 (see IterationState).
  std::map<uint32_t, double> HealthScores() const {
    return state_.HealthScores();
  }
  /// @}

  /// All iteration results, oldest first.
  const std::vector<MubeResult>& history() const { return history_; }
  bool has_result() const { return !history_.empty(); }
  const MubeResult& last_result() const { return history_.back(); }

  const std::vector<uint32_t>& pinned_sources() const {
    return state_.pinned_sources();
  }
  const MediatedSchema& ga_constraints() const {
    return state_.ga_constraints();
  }
  const Mube& engine() const { return *mube_; }

  /// Renders the last result in the editable text format (one GA per line,
  /// `source.attribute` members) plus a source list — what the UI displays.
  std::string RenderLastResult() const;

  /// \name Persistence
  /// The constraint state (pins, GA constraints, knobs) is what encodes
  /// the user's accumulated domain knowledge — it is worth keeping across
  /// sessions; results are recomputable and are not saved. A churn-capable
  /// session also saves its churn log, because the constraint state only
  /// makes sense against the catalog those events produced.
  /// @{
  /// Serializes the current constraint state (and, for churn-capable
  /// sessions, the applied churn log) to a line-oriented text blob.
  Result<std::string> SaveState() const;
  /// Replaces the constraint state with a previously saved blob. If the
  /// blob carries a churn log, this session's applied log must be a prefix
  /// of it; the missing suffix is replayed through ApplyChurn *before*
  /// constraint names are resolved, so pins recorded after churn resolve
  /// against the catalog they were saved under. Constraint errors leave the
  /// constraint state unchanged, but churn already replayed stays applied
  /// (catalog mutations are not undoable). A blob with churn cannot be
  /// restored into a static-universe session.
  Status RestoreState(const std::string& blob);
  /// @}

 private:
  explicit Session(std::unique_ptr<Mube> mube) : mube_(std::move(mube)) {}

  /// Assembles the RunSpec for the current constraint state and knobs.
  RunSpec BuildRunSpec() const;

  /// Records one warm/cold re-optimization decision in the metrics.
  void ObservePlan(const ReOptimizePlan& plan);

  /// Appends a finished iteration to history() and clears pending churn
  /// (a full solve accounts for every catalog change so far).
  const MubeResult& CommitIteration(MubeResult result);

  /// Resolved session-level metric handles (all null when detached).
  struct SessionMetrics {
    Counter* iterations = nullptr;
    Counter* reiterate_warm = nullptr;
    Counter* reiterate_cold = nullptr;
    Counter* churn_events = nullptr;
    Histogram* reopt_budget = nullptr;
    Histogram* reopt_churn_fraction = nullptr;
  };

  std::unique_ptr<Mube> mube_;
  DeltaUniverse* delta_universe_ = nullptr;  // null = static catalog
  ChurnDelta pending_churn_;
  ChurnLog churn_log_;
  ReOptimizerOptions reopt_options_;
  /// Last IterateAlternatives solutions, one per portfolio slot, best
  /// first — next call's warm-start incumbents.
  std::vector<std::vector<uint32_t>> alternative_incumbents_;
  SessionMetrics metrics_;
  IterationState state_;
  uint64_t seed_ = 1;
  std::vector<MubeResult> history_;
  ReliabilityStats reliability_stats_;
};

}  // namespace mube

#endif  // MUBE_CORE_SESSION_H_
