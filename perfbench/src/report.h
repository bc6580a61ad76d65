#ifndef MUBE_PERFBENCH_REPORT_H_
#define MUBE_PERFBENCH_REPORT_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/timer.h"

/// \file report.h
/// The benchmark's result schema and the small statistics it needs. One
/// Report per invocation: every workload records metrics (name, value,
/// unit), operation counts and output checks here, and main() prints the
/// stamp line, a detail line and the final contract line
///   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
/// which run.py forwards as the last line of standard output.

namespace mube::perfbench {

/// Command-line inputs of one run.
struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  /// Tiny sizes for the self-test: same code paths, seconds-scale inputs.
  bool tiny = false;
  /// Commit hash or source digest, supplied by run.py.
  std::string source_id = "unknown";
};

double Median(std::vector<double> values);
/// Nearest-rank percentile, q in [0, 1]; 0 for an empty sample.
double Percentile(std::vector<double> values, double q);
double Mean(const std::vector<double>& values);
/// numerator / denominator, or 0 when the denominator is not positive.
inline double Ratio(double numerator, double denominator) {
  return denominator > 0.0 ? numerator / denominator : 0.0;
}
/// Peak resident set of this process (VmHWM), in MB.
double PeakRssMb();
/// Current resident set of this process (VmRSS), in MB.
double CurrentRssMb();

class Report {
 public:
  /// Records a metric for the contract line. Names must be unique.
  void Metric(const std::string& name, double value, const std::string& unit);
  /// Records a workload-specific figure printed on the detail line only.
  void Detail(const std::string& name, double value, const std::string& unit);
  /// Records one output check; a failed check fails the run and counts as
  /// one failed operation.
  void Check(bool passed, const std::string& what);
  /// Counts operations the workload issued and how many failed, were
  /// refused or were shed.
  void Operations(uint64_t attempted, uint64_t failed);

  bool correct() const { return checks_failed_ == 0; }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_ + checks_failed_; }

  /// Prints the detail line and the contract line (last).
  void Print() const;

 private:
  struct Value {
    double value;
    std::string unit;
  };
  std::map<std::string, Value> metrics_;
  std::map<std::string, Value> details_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  uint64_t checks_failed_ = 0;
};

/// The stamp every result carries: machine, build and inputs.
void PrintStamp(const Args& args);

}  // namespace mube::perfbench

#endif  // MUBE_PERFBENCH_REPORT_H_
