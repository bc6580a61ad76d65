#ifndef MUBE_METRICS_METRICS_H_
#define MUBE_METRICS_METRICS_H_

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/thread_annotations.h"
#include "common/threading.h"

/// \file metrics.h
/// The unified observability layer: named monotonic counters and
/// fixed-bucket histograms behind one registry, with a deterministic text
/// exposition format. Every hot path the benches and the serving layer care
/// about — the matcher's Match(S) memo, the sketch union memo, the
/// similarity measure calls, optimizer evaluation budgets, churn delta
/// sizes, request latencies — reports through this one surface, so a bench,
/// a test, or a future scrape endpoint reads them all uniformly. This
/// generalizes the ReliabilityStats → IterationState::RecordExecution
/// pattern: the component counts, the registry exposes.
///
/// Concurrency contract: every recording operation (Counter::Increment,
/// Histogram::Observe) and every read (Value, snapshot, Expose) is safe
/// from any number of threads concurrently. Counters are lock-sharded —
/// each thread lands on a fixed shard, so concurrent increments from the
/// optimizer's pool contend only when two threads hash to the same shard —
/// and reads sum the shards. Metric objects are owned by the registry and
/// live as long as it does; handles returned by GetCounter/GetHistogram are
/// stable raw pointers, resolved once and cached by the instrumented
/// component so the hot path never touches the registry map.

namespace mube {

/// \brief Monotonic counter. Increment-only by contract (the exposition
/// format advertises it as such); there is no Reset.
class Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  /// Adds `delta` (thread-safe, lock-sharded by calling thread).
  void Increment(uint64_t delta = 1);

  /// Sum over all shards (thread-safe; a concurrent increment is either
  /// fully counted or not yet — never torn).
  uint64_t Value() const;

 private:
  static constexpr size_t kShards = 8;
  /// Cache-line sized so two shards never share a line: an increment on
  /// shard i must not bounce shard j's line between cores.
  struct alignas(64) Shard {
    mutable Mutex mu;
    uint64_t value GUARDED_BY(mu) = 0;
  };
  /// The calling thread's fixed shard index.
  static size_t ShardIndex();

  std::array<Shard, kShards> shards_;
};

/// \brief Settable instantaneous value (Prometheus gauge semantics): the
/// last Set/Add wins, readers see a point-in-time value. Used for
/// footprints and occupancy (e.g. the similarity index's resident bytes)
/// where the quantity goes both up and down, so a Counter cannot model it.
class Gauge {
 public:
  Gauge() = default;
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  /// Replaces the value (thread-safe).
  void Set(double value);

  /// Adjusts the value by `delta`, which may be negative (thread-safe).
  void Add(double delta);

  /// Current value (thread-safe, never torn).
  double Value() const;

 private:
  /// A gauge is a single last-writer-wins cell: sharding would force reads
  /// to pick one shard's truth, so unlike Counter it takes one lock.
  mutable Mutex mu_;
  double value_ GUARDED_BY(mu_) = 0.0;
};

/// \brief Fixed-bucket histogram: cumulative bucket counts over explicit
/// upper bounds, plus total count and sum (Prometheus histogram semantics).
/// Bucket boundaries are fixed at construction — recording never allocates.
class Histogram {
 public:
  /// \param upper_bounds  strictly increasing finite bucket upper bounds.
  ///                      An implicit +Inf bucket is always appended.
  explicit Histogram(std::vector<double> upper_bounds);
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  /// Records one observation (thread-safe, lock-sharded).
  void Observe(double value);

  /// Point-in-time aggregate across shards.
  struct Snapshot {
    std::vector<double> upper_bounds;     ///< finite bounds, ascending
    std::vector<uint64_t> bucket_counts;  ///< per-bucket (NOT cumulative);
                                          ///< one extra entry for +Inf
    uint64_t count = 0;
    double sum = 0.0;
  };
  Snapshot TakeSnapshot() const;

  /// Bucket-interpolated quantile estimate, q in [0, 1]. Returns 0 with no
  /// observations; observations in the +Inf bucket clamp to the largest
  /// finite bound.
  double Quantile(double q) const;

  /// Exponential bucket boundaries: `count` bounds starting at `start`,
  /// each `factor` times the previous (the usual latency-style layout).
  static std::vector<double> ExponentialBuckets(double start, double factor,
                                                size_t count);

  const std::vector<double>& upper_bounds() const { return upper_bounds_; }

 private:
  static constexpr size_t kShards = 8;
  struct alignas(64) Shard {
    mutable Mutex mu;
    std::vector<uint64_t> buckets GUARDED_BY(mu);
    uint64_t count GUARDED_BY(mu) = 0;
    double sum GUARDED_BY(mu) = 0.0;
  };

  std::vector<double> upper_bounds_;
  std::array<Shard, kShards> shards_;
};

/// \brief Owning, name-keyed registry of all metrics of one process
/// component (an engine, a service). Lookup is create-or-get: the first
/// caller fixes the metric's type (and, for histograms, buckets); a
/// later lookup under the same name with a different type CHECK-fails —
/// that is a wiring bug, not a runtime condition.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Returns the counter named `name`, creating it on first use. `help` is
  /// kept from the creating call. Names must match
  /// [a-zA-Z_][a-zA-Z0-9_]* (CHECK-enforced).
  Counter* GetCounter(const std::string& name, const std::string& help = "");

  /// Returns the gauge named `name`, creating it on first use.
  Gauge* GetGauge(const std::string& name, const std::string& help = "");

  /// Returns the histogram named `name`, creating it with `upper_bounds`
  /// on first use (later calls ignore the bounds argument).
  Histogram* GetHistogram(const std::string& name,
                          std::vector<double> upper_bounds,
                          const std::string& help = "");

  /// Number of registered metrics.
  size_t size() const;

  /// Deterministic text exposition (Prometheus-flavored): metrics sorted by
  /// name; counters as `<name> <value>`, gauges likewise, histograms as
  /// cumulative `<name>_bucket{le="..."}` series plus `_sum` and `_count`,
  /// each preceded by optional `# HELP` and mandatory `# TYPE` lines. Two
  /// registries holding the same values render byte-identically.
  std::string Expose() const;

 private:
  struct Entry {
    std::string help;
    std::unique_ptr<Counter> counter;      // exactly one of
    std::unique_ptr<Gauge> gauge;          // these three
    std::unique_ptr<Histogram> histogram;  // is set
  };

  /// Expose() walks the metric map under mu_ while Counter::Value /
  /// Gauge::Value / Histogram::TakeSnapshot take the metric-level locks — a
  /// cross-class nesting Clang's attribute expressions cannot name,
  /// declared for tools/lint/mube_lint.py's lock-order rule instead:
  // LOCK-ORDER: MetricsRegistry::mu_ -> Counter::Shard::mu
  // LOCK-ORDER: MetricsRegistry::mu_ -> Gauge::mu_
  // LOCK-ORDER: MetricsRegistry::mu_ -> Histogram::Shard::mu
  mutable Mutex mu_;
  std::map<std::string, Entry> metrics_ GUARDED_BY(mu_);
};

}  // namespace mube

#endif  // MUBE_METRICS_METRICS_H_
