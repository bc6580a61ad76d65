#ifndef MUBE_QEF_HEALTH_QEF_H_
#define MUBE_QEF_HEALTH_QEF_H_

#include <map>
#include <string>
#include <vector>

#include "qef/qef.h"

/// \file health_qef.h
/// Observed-availability QEF: closes the loop between the reliability layer
/// and source selection. The user's IterationState (held by a Session or a
/// serving Tenant) accumulates per-source scan outcomes (successes,
/// failures, circuit-breaker short-circuits — see
/// IterationState::RecordExecution) and distills them into a health score
/// in [0, 1] per observed source; this QEF scores a candidate subset S by the
/// mean health of its members, so the optimizer is steered away from
/// sources whose breakers keep opening without hard-excluding them — a
/// recovering source wins back weight as successful scans accumulate.
///
/// Unlike CharacteristicQef this scores *runtime observations*, not static
/// catalog metadata, so the score map is per-run input (RunSpec), not part
/// of the universe.

namespace mube {

/// \brief Mean observed health of a subset.
class SourceHealthQef : public Qef {
 public:
  /// \param health  source id → health in [0, 1] (1 = always succeeded,
  ///                0 = never). Sources absent from the map — never
  ///                executed against — count as 1.0: lack of evidence must
  ///                not penalize, or the optimizer could never explore
  ///                beyond the already-executed subset.
  explicit SourceHealthQef(std::map<uint32_t, double> health)
      : health_(std::move(health)) {}

  double Evaluate(const std::vector<uint32_t>& source_ids) const override;
  std::string name() const override { return "health"; }

 private:
  std::map<uint32_t, double> health_;
};

}  // namespace mube

#endif  // MUBE_QEF_HEALTH_QEF_H_
