#include "qef/characteristic_qef.h"

#include <algorithm>
#include <limits>

#include "schema/universe.h"

namespace mube {

namespace internal {

std::pair<double, double> CharacteristicRange(
    const Universe& universe, const std::string& characteristic) {
  double lo = std::numeric_limits<double>::infinity();
  double hi = -std::numeric_limits<double>::infinity();
  for (const Source& s : universe.sources()) {
    // Retired sources are not in U; their kept characteristics must not
    // stretch the range every live source is normalized by.
    if (!universe.alive(s.id())) continue;
    std::optional<double> v = s.characteristics().Get(characteristic);
    if (!v.has_value()) continue;
    lo = std::min(lo, *v);
    hi = std::max(hi, *v);
  }
  if (lo > hi) return {0.0, 0.0};  // nobody reports it
  return {lo, hi};
}

namespace {
/// Value of the characteristic for one source, with missing values mapped
/// to the universe minimum (zero contribution after normalization).
double ValueOrMin(const Source& s, const std::string& characteristic,
                  double min_value) {
  return s.characteristics().Get(characteristic).value_or(min_value);
}
}  // namespace

}  // namespace internal

double Aggregator::Aggregate(const Universe& universe,
                             const std::vector<uint32_t>& source_ids,
                             const std::string& characteristic) const {
  const auto [lo, hi] = internal::CharacteristicRange(universe,
                                                      characteristic);
  return AggregateInRange(universe, source_ids, characteristic, lo, hi);
}

double WeightedSumAggregator::AggregateInRange(
    const Universe& universe, const std::vector<uint32_t>& source_ids,
    const std::string& characteristic, double lo, double hi) const {
  if (source_ids.empty()) return 0.0;
  if (hi <= lo) return 0.0;  // constant or unreported characteristic
  double weighted = 0.0;
  double total_cardinality = 0.0;
  for (uint32_t sid : source_ids) {
    const Source& s = universe.source(sid);
    const double v = internal::ValueOrMin(s, characteristic, lo);
    weighted += (v - lo) * static_cast<double>(s.cardinality());
    total_cardinality += static_cast<double>(s.cardinality());
  }
  if (total_cardinality <= 0.0) return 0.0;
  return weighted / (total_cardinality * (hi - lo));
}

double MeanAggregator::AggregateInRange(
    const Universe& universe, const std::vector<uint32_t>& source_ids,
    const std::string& characteristic, double lo, double hi) const {
  if (source_ids.empty()) return 0.0;
  if (hi <= lo) return 0.0;
  double sum = 0.0;
  for (uint32_t sid : source_ids) {
    const double v =
        internal::ValueOrMin(universe.source(sid), characteristic, lo);
    sum += (v - lo) / (hi - lo);
  }
  return sum / static_cast<double>(source_ids.size());
}

double MinAggregator::AggregateInRange(
    const Universe& universe, const std::vector<uint32_t>& source_ids,
    const std::string& characteristic, double lo, double hi) const {
  if (source_ids.empty()) return 0.0;
  if (hi <= lo) return 0.0;
  double best = 1.0;
  for (uint32_t sid : source_ids) {
    const double v =
        internal::ValueOrMin(universe.source(sid), characteristic, lo);
    best = std::min(best, (v - lo) / (hi - lo));
  }
  return best;
}

double MaxAggregator::AggregateInRange(
    const Universe& universe, const std::vector<uint32_t>& source_ids,
    const std::string& characteristic, double lo, double hi) const {
  if (source_ids.empty()) return 0.0;
  if (hi <= lo) return 0.0;
  double best = 0.0;
  for (uint32_t sid : source_ids) {
    const double v =
        internal::ValueOrMin(universe.source(sid), characteristic, lo);
    best = std::max(best, (v - lo) / (hi - lo));
  }
  return best;
}

Result<std::unique_ptr<Aggregator>> MakeAggregator(const std::string& name) {
  if (name == "wsum") {
    return std::unique_ptr<Aggregator>(new WeightedSumAggregator());
  }
  if (name == "mean") {
    return std::unique_ptr<Aggregator>(new MeanAggregator());
  }
  if (name == "min") return std::unique_ptr<Aggregator>(new MinAggregator());
  if (name == "max") return std::unique_ptr<Aggregator>(new MaxAggregator());
  return Status::NotFound("unknown aggregator: " + name);
}

CharacteristicQef::CharacteristicQef(const Universe& universe,
                                     std::string characteristic,
                                     std::unique_ptr<Aggregator> aggregator,
                                     bool invert)
    : universe_(universe),
      characteristic_(std::move(characteristic)),
      aggregator_(std::move(aggregator)),
      invert_(invert),
      range_(internal::CharacteristicRange(universe_, characteristic_)) {}

double CharacteristicQef::Evaluate(
    const std::vector<uint32_t>& source_ids) const {
  const double score = aggregator_->AggregateInRange(
      universe_, source_ids, characteristic_, range_.first, range_.second);
  return invert_ ? 1.0 - score : score;
}

std::string CharacteristicQef::name() const {
  return characteristic_ + ":" + aggregator_->name() +
         (invert_ ? ":inverted" : "");
}

}  // namespace mube
