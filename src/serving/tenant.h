#ifndef MUBE_SERVING_TENANT_H_
#define MUBE_SERVING_TENANT_H_

#include <optional>
#include <string>
#include <vector>

#include "common/thread_annotations.h"
#include "common/threading.h"
#include "core/iteration_state.h"
#include "core/mube.h"
#include "reliability/reliable_executor.h"

/// \file tenant.h
/// Per-tenant iteration state for the serving layer. A Session (core/) owns
/// its engine; a service cannot afford one engine per user — all tenants
/// share the epoch snapshots (src/serving/snapshot.h) and differ only in
/// the µBE *user state* of paper §6, an IterationState
/// (core/iteration_state.h). Tenant wraps that state with a mutex and the
/// serving bookkeeping, and stamps it into a RunSpec against whichever
/// epoch the dispatcher leased.
///
/// Ids are stable across epochs (the snapshot lineage never reuses a source
/// slot), so pins recorded under epoch N mean the same sources under epoch
/// N+k; pins and GA constraints whose source has since been retired are
/// dropped by IterationState::BuildRunSpec (lazily: churn publishes without
/// consulting tenants, where Session prunes eagerly).
///
/// Thread-safe: a tenant's own requests may be in flight concurrently with
/// its constraint edits (one user, several tabs). All state sits behind one
/// per-tenant mutex; BuildRunSpec takes a consistent atomic copy.

namespace mube {

/// \brief Per-tenant serving outcome counters, maintained by MubeService.
/// These are the tenant-granular complement of the aggregate registry
/// metrics (Prometheus metric names cannot carry a tenant label here).
struct TenantServingStats {
  size_t admitted = 0;        ///< requests accepted into the queue
  size_t served_ok = 0;       ///< requests completed with an OK status
  size_t shed_deadline = 0;   ///< shed with kDeadlineExceeded before serving
  size_t rejected_quota = 0;  ///< rejected with kResourceExhausted at Submit
  size_t degraded = 0;        ///< served the stale cached incumbent/report
  size_t executes = 0;        ///< Execute requests served (not shed/degraded)
};

/// \brief One serving event, recorded against TenantServingStats.
enum class TenantServingEvent {
  kAdmitted,
  kServedOk,
  kShedDeadline,
  kRejectedQuota,
  kDegraded,
  kExecute,
};

/// \brief One tenant's constraint state over the shared snapshots.
class Tenant {
 public:
  explicit Tenant(std::string name) : name_(std::move(name)) {}

  Tenant(const Tenant&) = delete;
  Tenant& operator=(const Tenant&) = delete;

  const std::string& name() const { return name_; }

  /// \name Constraint editing (rules: IterationState)
  /// `universe` is the catalog to validate against — callers pass the
  /// current epoch's universe (ids stay valid in later epochs).
  /// @{
  Status PinSource(const Universe& universe, const std::string& source_name)
      EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return state_.PinSource(universe, source_name);
  }
  Status PinSource(const Universe& universe, uint32_t source_id)
      EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return state_.PinSource(universe, source_id);
  }
  Status UnpinSource(uint32_t source_id) EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return state_.UnpinSource(source_id);
  }
  Status AddGaConstraint(const Universe& universe, GlobalAttribute ga)
      EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return state_.AddGaConstraint(universe, std::move(ga));
  }
  void ClearGaConstraints() EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    state_.ClearGaConstraints();
  }
  void ClearSourcePins() EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    state_.ClearSourcePins();
  }
  std::vector<uint32_t> pinned_sources() const EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return state_.pinned_sources();
  }
  /// @}

  /// \name Problem knobs (rules: IterationState)
  /// @{
  Status SetWeights(size_t qef_count, const std::vector<double>& weights)
      EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return state_.SetWeights(qef_count, weights);
  }
  Status SetTheta(double theta) EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return state_.SetTheta(theta);
  }
  Status SetMaxSources(size_t max_sources) EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return state_.SetMaxSources(max_sources);
  }
  Status SetOptimizer(const std::string& name) EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return state_.SetOptimizer(name);
  }
  Status SetHealthBias(double weight) EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return state_.SetHealthBias(weight);
  }
  /// @}

  /// Folds one resilient execution into this tenant's health view (its
  /// next biased RunSpec selects around sources *it* observed failing).
  void RecordExecution(const ExecutionReport& report) EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    state_.RecordExecution(report);
  }

  /// \name Dispatch weight
  /// Deterministic weighted-fair share: the dispatcher grants this tenant
  /// up to `weight` slots per round-robin turn. Must be >= 1; default 1.
  /// @{
  Status SetDispatchWeight(size_t weight) EXCLUDES(mu_);
  size_t dispatch_weight() const EXCLUDES(mu_);
  /// @}

  /// \name Incumbent cache
  /// The service records the best result of every successful Refine here.
  /// It doubles as (a) the selection Execute runs against, and (b) the
  /// stale answer served when a deadline leaves no budget for a fresh run.
  /// @{
  void SetIncumbent(MubeResult result) EXCLUDES(mu_);
  std::optional<MubeResult> incumbent() const EXCLUDES(mu_);
  /// @}

  /// \name Cached execution report
  /// The last non-failed Execute answer, re-served stale-marked when an
  /// Execute arrives with too little remaining budget for a real run.
  /// @{
  void CacheReport(ExecutionReport report) EXCLUDES(mu_);
  std::optional<ExecutionReport> cached_report() const EXCLUDES(mu_);
  /// @}

  /// \name Serving bookkeeping (maintained by MubeService)
  /// @{
  void RecordServingEvent(TenantServingEvent event) EXCLUDES(mu_);
  TenantServingStats serving_stats() const EXCLUDES(mu_);
  /// Feeds one served request's engine/executor seconds into the EWMA the
  /// quota-rejection retry-after hint is derived from.
  void ObserveServeSeconds(double seconds) EXCLUDES(mu_);
  /// Exponentially weighted average serve time (0 until first observation).
  double ewma_serve_seconds() const EXCLUDES(mu_);
  /// @}

  /// IterationState::BuildRunSpec for `universe` (the leased epoch's
  /// catalog) under the tenant's lock. `seed` is explicit and
  /// caller-provided, so a fixed request stream is deterministic per epoch
  /// regardless of dispatch interleaving.
  RunSpec BuildRunSpec(const Universe& universe, uint64_t seed) const
      EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return state_.BuildRunSpec(universe, seed);
  }

 private:
  const std::string name_;
  mutable Mutex mu_;
  IterationState state_ GUARDED_BY(mu_);
  size_t dispatch_weight_ GUARDED_BY(mu_) = 1;
  std::optional<MubeResult> incumbent_ GUARDED_BY(mu_);
  std::optional<ExecutionReport> cached_report_ GUARDED_BY(mu_);
  TenantServingStats serving_stats_ GUARDED_BY(mu_);
  double ewma_serve_seconds_ GUARDED_BY(mu_) = 0.0;
};

}  // namespace mube

#endif  // MUBE_SERVING_TENANT_H_
