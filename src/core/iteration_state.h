#ifndef MUBE_CORE_ITERATION_STATE_H_
#define MUBE_CORE_ITERATION_STATE_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "core/mube.h"
#include "reliability/reliable_executor.h"

/// \file iteration_state.h
/// The user state of the paper's §6 loop: what the user edits between
/// iterations (pinned sources, GA constraints, QEF weights, θ, m, optimizer
/// choice, health bias) plus the per-source scan health the health bias
/// feeds back into selection. Session (one user, one engine) and Tenant
/// (one user over shared serving snapshots) each hold one, so every edit
/// rule, the retired-source pruning, the health scores, the RunSpec
/// assembly and the text directives exist once.
///
/// Edits naming sources are validated against the caller's universe. Ids
/// are stable across churn, so a state edited under one catalog keeps its
/// meaning under later ones, except for sources retired since: Session
/// drops those eagerly (PruneRetired), Tenant lazily (BuildRunSpec filters
/// them). Not thread-safe; Tenant guards its copy with a mutex.

namespace mube {

/// \brief The §6 user state: validated edits, knobs and observed health.
class IterationState {
 public:
  /// Per-source availability as recorded executions observed it.
  struct SourceHealth {
    size_t scans_ok = 0;
    size_t scans_failed = 0;
    size_t short_circuits = 0;
    /// Last injected fault seen on a failed scan (kNone after a success).
    FaultKind last_fault = FaultKind::kNone;
  };

  /// \name Constraint edits
  /// @{
  /// Requires source `name`/`id` in the solution (a source constraint).
  /// Unknown sources, retired sources (FailedPrecondition) and repeats
  /// (AlreadyExists) are rejected.
  Status PinSource(const Universe& universe, const std::string& name);
  Status PinSource(const Universe& universe, uint32_t source_id);
  Status UnpinSource(uint32_t source_id);
  /// Adds a GA constraint. Rejects invalid GAs, unknown members, members
  /// of retired sources (FailedPrecondition, as for pins) and GAs that
  /// overlap an existing constraint.
  Status AddGaConstraint(const Universe& universe, GlobalAttribute ga);
  void ClearGaConstraints() { ga_constraints_ = MediatedSchema(); }
  void ClearSourcePins() { pinned_sources_.clear(); }
  /// @}

  /// \name Problem knobs
  /// @{
  /// `weights` must hold `qef_count` values in [0,1] summing to 1.
  Status SetWeights(size_t qef_count, const std::vector<double>& weights);
  Status SetTheta(double theta);
  Status SetMaxSources(size_t max_sources);
  /// Validated eagerly, so a typo surfaces now rather than at run time.
  Status SetOptimizer(const std::string& name);
  /// Weight of the observed-health QEF (see SourceHealthQef); 0 keeps
  /// health out of selection. Must be in [0, 1).
  Status SetHealthBias(double weight);
  /// @}

  /// Drops pins and GA constraints (whole) that reference retired sources.
  void PruneRetired(const Universe& universe);

  /// Folds one resilient execution into the per-source health map.
  void RecordExecution(const ExecutionReport& report);

  /// Successful scans over total scans per observed source, short-circuits
  /// counted as failures (an open breaker is exactly the signal to select
  /// around). Sources never executed against are absent (treated healthy).
  std::map<uint32_t, double> HealthScores() const;

  /// The RunSpec for `universe`: pins and GA constraints minus those on
  /// retired sources, the knobs that were set, health scores when the bias
  /// is on, and `seed`.
  RunSpec BuildRunSpec(const Universe& universe, uint64_t seed) const;

  /// \name Text directives
  /// @{
  /// One line per edit (`pin`, `ga`, `weights`, `theta`, `max_sources`,
  /// `optimizer`, `health_bias`), naming sources as `universe` does.
  std::string SaveDirectives(const Universe& universe) const;
  /// Applies one saved directive line through the matching setter. A
  /// repeated `pin` is accepted and deduplicated.
  Status ApplyDirective(const Universe& universe, size_t qef_count,
                        std::string_view line);
  /// Replaces every edit and knob with `edits`', keeping observed health.
  void ReplaceEdits(IterationState edits);
  /// @}

  const std::vector<uint32_t>& pinned_sources() const {
    return pinned_sources_;
  }
  const MediatedSchema& ga_constraints() const { return ga_constraints_; }
  double health_bias() const { return health_bias_; }
  const std::map<uint32_t, SourceHealth>& source_health() const {
    return source_health_;
  }

 private:
  std::vector<uint32_t> pinned_sources_;  // sorted
  MediatedSchema ga_constraints_;
  std::vector<double> weights_;  // empty = config defaults
  double theta_ = -1.0;          // <0 = config default
  size_t max_sources_ = 0;       // 0 = config default
  std::string optimizer_;        // empty = config default
  double health_bias_ = 0.0;     // 0 = reliability feedback off
  std::map<uint32_t, SourceHealth> source_health_;
};

}  // namespace mube

#endif  // MUBE_CORE_ITERATION_STATE_H_
