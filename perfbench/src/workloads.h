#ifndef MUBE_PERFBENCH_WORKLOADS_H_
#define MUBE_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>

#include "metrics/metrics.h"
#include "report.h"

/// \file workloads.h
/// The three workloads. Each generates its inputs from the seed (untimed),
/// then measures for Args::seconds. Untraced runs record the end-to-end
/// metrics, traced runs the per-layer metrics; both run the output checks.
/// PERFBENCH.md lists which layers each workload loads and bypasses.

namespace mube::perfbench {

void RunPaperLoop(const Args& args, Report* report);
void RunWebChurn(const Args& args, Report* report);
void RunServingMix(const Args& args, Report* report);

/// Reads a counter the engine or the service registered (0 if absent).
inline double CounterValue(MetricsRegistry* registry, const std::string& name) {
  return static_cast<double>(registry->GetCounter(name)->Value());
}

}  // namespace mube::perfbench

#endif  // MUBE_PERFBENCH_WORKLOADS_H_
