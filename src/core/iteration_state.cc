#include "core/iteration_state.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "common/string_util.h"
#include "opt/optimizer.h"
#include "schema/serialization.h"

namespace mube {

namespace {

/// The one rule for edits naming a source that churn has retired.
Status CheckAlive(const Universe& universe, uint32_t source_id) {
  if (universe.alive(source_id)) return Status::OK();
  return Status::FailedPrecondition("source '" +
                                    universe.source(source_id).name() +
                                    "' has been removed from the universe");
}

std::vector<uint32_t> LivePins(const std::vector<uint32_t>& pins,
                               const Universe& universe) {
  std::vector<uint32_t> live;
  for (uint32_t sid : pins) {
    if (universe.alive(sid)) live.push_back(sid);
  }
  return live;
}

/// A GA constraint is kept whole or dropped whole.
MediatedSchema LiveGas(const MediatedSchema& gas, const Universe& universe) {
  MediatedSchema live;
  for (const GlobalAttribute& ga : gas.gas()) {
    if (std::all_of(ga.members().begin(), ga.members().end(),
                    [&](const AttributeRef& ref) {
                      return universe.alive(ref.source_id);
                    })) {
      live.Add(ga);
    }
  }
  return live;
}

/// %.17g is the shortest format guaranteed to round-trip a double.
std::string RoundTrip(double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

}  // namespace

Status IterationState::PinSource(const Universe& universe,
                                 const std::string& name) {
  std::optional<uint32_t> sid = universe.FindSource(name);
  if (!sid.has_value()) {
    return Status::NotFound("no source named '" + name + "'");
  }
  return PinSource(universe, *sid);
}

Status IterationState::PinSource(const Universe& universe,
                                 uint32_t source_id) {
  if (source_id >= universe.size()) {
    return Status::InvalidArgument("source id out of range");
  }
  MUBE_RETURN_IF_ERROR(CheckAlive(universe, source_id));
  auto pos = std::lower_bound(pinned_sources_.begin(), pinned_sources_.end(),
                              source_id);
  if (pos != pinned_sources_.end() && *pos == source_id) {
    return Status::AlreadyExists("source already pinned");
  }
  pinned_sources_.insert(pos, source_id);
  return Status::OK();
}

Status IterationState::UnpinSource(uint32_t source_id) {
  auto pos = std::lower_bound(pinned_sources_.begin(), pinned_sources_.end(),
                              source_id);
  if (pos == pinned_sources_.end() || *pos != source_id) {
    return Status::NotFound("source is not pinned");
  }
  pinned_sources_.erase(pos);
  return Status::OK();
}

Status IterationState::AddGaConstraint(const Universe& universe,
                                       GlobalAttribute ga) {
  if (!ga.IsValid()) {
    return Status::InvalidArgument("GA constraint is not valid");
  }
  for (const AttributeRef& ref : ga.members()) {
    if (!universe.Contains(ref)) {
      return Status::InvalidArgument("GA constraint references unknown " +
                                     ref.ToString());
    }
    MUBE_RETURN_IF_ERROR(CheckAlive(universe, ref.source_id));
  }
  // The combined constraint set must stay a well-formed partial schema.
  MediatedSchema candidate = ga_constraints_;
  candidate.Add(std::move(ga));
  if (!candidate.IsWellFormed()) {
    return Status::InvalidArgument(
        "GA constraint overlaps an existing constraint");
  }
  ga_constraints_ = std::move(candidate);
  return Status::OK();
}

// The range checks are written negated so that NaN fails them.
Status IterationState::SetWeights(size_t qef_count,
                                  const std::vector<double>& weights) {
  if (weights.size() != qef_count) {
    return Status::InvalidArgument("weight count mismatch");
  }
  double sum = 0.0;
  for (double w : weights) {
    if (!(w >= 0.0 && w <= 1.0)) {
      return Status::InvalidArgument("weight out of [0,1]");
    }
    sum += w;
  }
  if (std::abs(sum - 1.0) > 1e-9) {
    return Status::InvalidArgument("weights must sum to 1");
  }
  weights_ = weights;
  return Status::OK();
}

Status IterationState::SetTheta(double theta) {
  if (!(theta >= 0.0 && theta <= 1.0)) {
    return Status::InvalidArgument("theta must be in [0,1]");
  }
  theta_ = theta;
  return Status::OK();
}

Status IterationState::SetMaxSources(size_t max_sources) {
  if (max_sources == 0) {
    return Status::InvalidArgument("max_sources must be >= 1");
  }
  max_sources_ = max_sources;
  return Status::OK();
}

Status IterationState::SetOptimizer(const std::string& name) {
  MUBE_RETURN_IF_ERROR(MakeOptimizer(name, OptimizerOptions()).status());
  optimizer_ = name;
  return Status::OK();
}

Status IterationState::SetHealthBias(double weight) {
  if (!(weight >= 0.0 && weight < 1.0)) {
    return Status::InvalidArgument("health bias must be in [0,1)");
  }
  health_bias_ = weight;
  return Status::OK();
}

void IterationState::PruneRetired(const Universe& universe) {
  pinned_sources_ = LivePins(pinned_sources_, universe);
  ga_constraints_ = LiveGas(ga_constraints_, universe);
}

void IterationState::RecordExecution(const ExecutionReport& report) {
  for (const SourceScanLog& log : report.scans) {
    SourceHealth& health = source_health_[log.source_id];
    switch (log.status) {
      case ScanStatus::kOk:
        ++health.scans_ok;
        health.last_fault = FaultKind::kNone;
        break;
      case ScanStatus::kFailed:
      case ScanStatus::kDeadlineSkipped:
        ++health.scans_failed;
        health.last_fault = log.last_fault;
        break;
      case ScanStatus::kShortCircuited:
        ++health.short_circuits;
        break;
      case ScanStatus::kSkippedCannotAnswer:
        break;  // not a health signal: the schema, not the source
    }
  }
}

std::map<uint32_t, double> IterationState::HealthScores() const {
  std::map<uint32_t, double> scores;
  for (const auto& [sid, health] : source_health_) {
    const size_t total =
        health.scans_ok + health.scans_failed + health.short_circuits;
    if (total == 0) continue;
    scores[sid] = static_cast<double>(health.scans_ok) /
                  static_cast<double>(total);
  }
  return scores;
}

RunSpec IterationState::BuildRunSpec(const Universe& universe,
                                     uint64_t seed) const {
  RunSpec spec;
  spec.source_constraints = LivePins(pinned_sources_, universe);
  spec.ga_constraints = LiveGas(ga_constraints_, universe);
  if (!weights_.empty()) spec.weights = weights_;
  if (theta_ >= 0.0) spec.theta = theta_;
  if (max_sources_ > 0) spec.max_sources = max_sources_;
  if (!optimizer_.empty()) spec.optimizer = optimizer_;
  if (health_bias_ > 0.0) {
    spec.source_health = HealthScores();
    spec.health_weight = health_bias_;
  }
  spec.seed = seed;
  return spec;
}

std::string IterationState::SaveDirectives(const Universe& universe) const {
  std::ostringstream out;
  for (uint32_t sid : pinned_sources_) {
    out << "pin " << universe.source(sid).name() << "\n";
  }
  for (const GlobalAttribute& ga : ga_constraints_.gas()) {
    out << "ga " << SerializeMediatedSchema(MediatedSchema({ga}), universe);
  }
  if (!weights_.empty()) {
    out << "weights";
    for (double w : weights_) out << " " << RoundTrip(w);
    out << "\n";
  }
  if (theta_ >= 0.0) out << "theta " << RoundTrip(theta_) << "\n";
  if (max_sources_ > 0) out << "max_sources " << max_sources_ << "\n";
  if (!optimizer_.empty()) out << "optimizer " << optimizer_ << "\n";
  if (health_bias_ > 0.0) {
    out << "health_bias " << RoundTrip(health_bias_) << "\n";
  }
  return out.str();
}

Status IterationState::ApplyDirective(const Universe& universe,
                                      size_t qef_count,
                                      std::string_view line) {
  if (StartsWith(line, "pin ")) {
    Status pinned = PinSource(universe, std::string(Trim(line.substr(4))));
    return pinned.code() == StatusCode::kAlreadyExists ? Status::OK()
                                                       : pinned;
  }
  if (StartsWith(line, "ga ")) {
    MUBE_ASSIGN_OR_RETURN(GlobalAttribute ga,
                          ParseGlobalAttribute(line.substr(3), universe));
    return AddGaConstraint(universe, std::move(ga));
  }
  if (StartsWith(line, "weights ")) {
    std::vector<double> weights;
    for (const std::string& token : SplitAndTrim(line.substr(8), ' ')) {
      MUBE_RETURN_IF_ERROR(ParseDouble(token, &weights.emplace_back()));
    }
    return SetWeights(qef_count, weights);
  }
  double number = 0.0;
  if (StartsWith(line, "theta ")) {
    MUBE_RETURN_IF_ERROR(ParseDouble(Trim(line.substr(6)), &number));
    return SetTheta(number);
  }
  if (StartsWith(line, "health_bias ")) {
    MUBE_RETURN_IF_ERROR(ParseDouble(Trim(line.substr(12)), &number));
    return SetHealthBias(number);
  }
  if (StartsWith(line, "max_sources ")) {
    uint64_t max_sources = 0;
    MUBE_RETURN_IF_ERROR(ParseUint64(Trim(line.substr(12)), &max_sources));
    return SetMaxSources(static_cast<size_t>(max_sources));
  }
  if (StartsWith(line, "optimizer ")) {
    return SetOptimizer(std::string(Trim(line.substr(10))));
  }
  return Status::InvalidArgument("unknown directive: " + std::string(line));
}

void IterationState::ReplaceEdits(IterationState edits) {
  edits.source_health_ = std::move(source_health_);
  *this = std::move(edits);
}

}  // namespace mube
