#ifndef MUBE_QEF_CHARACTERISTIC_QEF_H_
#define MUBE_QEF_CHARACTERISTIC_QEF_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "qef/qef.h"

/// \file characteristic_qef.h
/// QEFs over per-source characteristics (paper §5): latency, availability,
/// MTTF, fees, reputation — positive reals of any magnitude. An Aggregator
/// folds the characteristic values of a subset into a [0,1] score; µBE ships
/// the paper's `wsum` (cardinality-weighted, min-max normalized sum) plus a
/// few common alternates, and users can plug in their own Aggregator.
///
/// Orientation: aggregators score "bigger is better". For characteristics
/// where smaller is better (latency, fees) wrap the QEF with
/// `invert = true`, which scores 1 − aggregate.

namespace mube {

class Universe;

/// \brief Folds a subset's characteristic values into [0, 1].
class Aggregator {
 public:
  virtual ~Aggregator() = default;

  /// \param universe    catalog (for cardinalities and the values)
  /// \param source_ids  the subset S
  /// \param characteristic  name of the per-source characteristic
  /// \param lo, hi      its universe-wide range, as
  ///                    internal::CharacteristicRange returns it
  /// Sources missing the characteristic contribute as if they had the
  /// universe-wide minimum (i.e. nothing).
  virtual double AggregateInRange(const Universe& universe,
                                  const std::vector<uint32_t>& source_ids,
                                  const std::string& characteristic,
                                  double lo, double hi) const = 0;

  /// Convenience: resolves the range over the universe, then folds. A
  /// caller that scores many subsets of one universe (CharacteristicQef)
  /// resolves the range once and calls AggregateInRange instead.
  double Aggregate(const Universe& universe,
                   const std::vector<uint32_t>& source_ids,
                   const std::string& characteristic) const;

  virtual std::string name() const = 0;
};

/// \brief The paper's weighted-sum aggregation (§5):
///
///   wsum(S) = Σ_{s∈S} (s.q − min_U q)·|s|
///             ───────────────────────────────────────
///             (Σ_{s∈S} |s|) · (max_U q − min_U q)
///
/// A source with a good characteristic *and* many tuples is worth more than
/// a good source with few tuples.
class WeightedSumAggregator : public Aggregator {
 public:
  double AggregateInRange(const Universe& universe,
                          const std::vector<uint32_t>& source_ids,
                          const std::string& characteristic, double lo,
                          double hi) const override;
  std::string name() const override { return "wsum"; }
};

/// \brief Unweighted mean of min-max normalized values.
class MeanAggregator : public Aggregator {
 public:
  double AggregateInRange(const Universe& universe,
                          const std::vector<uint32_t>& source_ids,
                          const std::string& characteristic, double lo,
                          double hi) const override;
  std::string name() const override { return "mean"; }
};

/// \brief Normalized minimum over S — scores the *worst* selected source,
/// for characteristics where one bad source poisons the system (e.g.
/// availability of a source you must join against).
class MinAggregator : public Aggregator {
 public:
  double AggregateInRange(const Universe& universe,
                          const std::vector<uint32_t>& source_ids,
                          const std::string& characteristic, double lo,
                          double hi) const override;
  std::string name() const override { return "min"; }
};

/// \brief Normalized maximum over S — scores the best selected source.
class MaxAggregator : public Aggregator {
 public:
  double AggregateInRange(const Universe& universe,
                          const std::vector<uint32_t>& source_ids,
                          const std::string& characteristic, double lo,
                          double hi) const override;
  std::string name() const override { return "max"; }
};

/// \brief Instantiates an aggregator by name: "wsum", "mean", "min", "max".
Result<std::unique_ptr<Aggregator>> MakeAggregator(const std::string& name);

/// \brief A QEF over one named characteristic with one aggregator.
///
/// The universe is fixed for the QEF's lifetime (the engine builds QEFs per
/// run), so the characteristic's range is resolved once, at construction.
class CharacteristicQef : public Qef {
 public:
  /// \param invert  score 1 − aggregate, for smaller-is-better
  ///                characteristics.
  CharacteristicQef(const Universe& universe, std::string characteristic,
                    std::unique_ptr<Aggregator> aggregator,
                    bool invert = false);

  double Evaluate(const std::vector<uint32_t>& source_ids) const override;
  std::string name() const override;

 private:
  const Universe& universe_;
  std::string characteristic_;
  std::unique_ptr<Aggregator> aggregator_;
  bool invert_;
  const std::pair<double, double> range_;  ///< internal::CharacteristicRange
};

namespace internal {
/// Universe-wide [min, max] of a characteristic over the live sources that
/// report it (retired sources are not in U). Returns {0, 0} when nobody
/// reports it.
std::pair<double, double> CharacteristicRange(
    const Universe& universe, const std::string& characteristic);
}  // namespace internal

}  // namespace mube

#endif  // MUBE_QEF_CHARACTERISTIC_QEF_H_
