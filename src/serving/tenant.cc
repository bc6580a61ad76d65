#include "serving/tenant.h"

namespace mube {

Status Tenant::SetDispatchWeight(size_t weight) {
  if (weight == 0) {
    return Status::InvalidArgument("dispatch weight must be >= 1");
  }
  MutexLock lock(&mu_);
  dispatch_weight_ = weight;
  return Status::OK();
}

size_t Tenant::dispatch_weight() const {
  MutexLock lock(&mu_);
  return dispatch_weight_;
}

void Tenant::SetIncumbent(MubeResult result) {
  MutexLock lock(&mu_);
  incumbent_ = std::move(result);
}

std::optional<MubeResult> Tenant::incumbent() const {
  MutexLock lock(&mu_);
  return incumbent_;
}

void Tenant::CacheReport(ExecutionReport report) {
  MutexLock lock(&mu_);
  cached_report_ = std::move(report);
}

std::optional<ExecutionReport> Tenant::cached_report() const {
  MutexLock lock(&mu_);
  return cached_report_;
}

void Tenant::RecordServingEvent(TenantServingEvent event) {
  MutexLock lock(&mu_);
  switch (event) {
    case TenantServingEvent::kAdmitted:
      ++serving_stats_.admitted;
      break;
    case TenantServingEvent::kServedOk:
      ++serving_stats_.served_ok;
      break;
    case TenantServingEvent::kShedDeadline:
      ++serving_stats_.shed_deadline;
      break;
    case TenantServingEvent::kRejectedQuota:
      ++serving_stats_.rejected_quota;
      break;
    case TenantServingEvent::kDegraded:
      ++serving_stats_.degraded;
      break;
    case TenantServingEvent::kExecute:
      ++serving_stats_.executes;
      break;
  }
}

TenantServingStats Tenant::serving_stats() const {
  MutexLock lock(&mu_);
  return serving_stats_;
}

void Tenant::ObserveServeSeconds(double seconds) {
  MutexLock lock(&mu_);
  // First observation seeds the average; later ones decay at alpha = 0.2.
  ewma_serve_seconds_ = ewma_serve_seconds_ == 0.0
                            ? seconds
                            : 0.8 * ewma_serve_seconds_ + 0.2 * seconds;
}

double Tenant::ewma_serve_seconds() const {
  MutexLock lock(&mu_);
  return ewma_serve_seconds_;
}

}  // namespace mube
