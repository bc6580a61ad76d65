#include "schema/universe.h"

#include <algorithm>

#include "common/hash.h"
#include "common/logging.h"

namespace mube {

Universe Universe::Clone() const { return Universe(*this); }

uint32_t Universe::AddSource(Source source) {
  const uint32_t id = static_cast<uint32_t>(records_.size());
  source.id_ = id;
  sources_.Grow(id + 1);
  records_.push_back(nullptr);
  alive_.push_back(true);
  ++alive_count_;
  const Source& s = mutable_source(id) = std::move(source);
  attr_offsets_.push_back(total_attrs_);
  total_attrs_ += s.attribute_count();
  total_cardinality_ += s.cardinality();
  for (const auto& [name, value] : s.characteristics().values()) {
    extents_[name].Add(value);
  }
  IndexName(id);
  return id;
}

void Universe::RetireSource(uint32_t id) {
  MUBE_CHECK(id < records_.size());
  if (!alive_[id]) return;
  alive_[id] = false;
  --alive_count_;
  // Shed the data: a retired source contributes no tuples and no
  // cardinality; only the schema stays, to keep attribute indexes stable.
  Source& s = mutable_source(id);
  total_cardinality_ -= s.cardinality();
  s.tuples_.clear();
  s.tuples_.shrink_to_fit();
  s.has_tuples_ = false;
  s.cardinality_ = 0;
  // Its characteristics leave the ranges. An end it held moves only if no
  // other live source holds it; a zero end is rescanned anyway, since the
  // scan keeps the sign of the lowest-id holder of ±0.
  for (const auto& [name, value] : s.characteristics().values()) {
    auto it = extents_.find(name);
    MUBE_CHECK(it != extents_.end());  // else RefreshStatistics() was due
    Extent& e = it->second;
    bool rescan = false;
    if (value == e.lo) rescan |= --e.lo_holders == 0 || value == 0.0;
    if (value == e.hi) rescan |= --e.hi_holders == 0 || value == 0.0;
    if (!rescan) continue;
    e = ScanExtent(name);
    if (e.lo > e.hi) extents_.erase(it);
  }
}

void Universe::UpdateTuples(uint32_t id, std::vector<uint64_t> tuple_ids) {
  Source& s = mutable_source(id);
  if (alive_[id]) total_cardinality_ -= s.cardinality();
  s.SetTuples(std::move(tuple_ids));
  if (alive_[id]) total_cardinality_ += s.cardinality();
}

Source& Universe::mutable_source(uint32_t id) {
  Source& s = sources_.Mutable(id);
  if (&s != records_[id]) RepointChunk(id);
  return s;
}

void Universe::RepointChunk(uint32_t id) {
  constexpr size_t kChunk = size_t{1} << kSourceChunkBits;
  const size_t first = id & ~(kChunk - 1);
  const size_t last = std::min(first + kChunk, records_.size());
  for (size_t i = first; i < last; ++i) records_[i] = &sources_[i];
}

std::vector<uint32_t> Universe::AliveSourceIds() const {
  std::vector<uint32_t> ids;
  ids.reserve(alive_count_);
  for (uint32_t id = 0; id < records_.size(); ++id) {
    if (alive_[id]) ids.push_back(id);
  }
  return ids;
}

void Universe::RefreshStatistics() {
  attr_offsets_.resize(records_.size());
  size_t offset = 0;
  uint64_t cardinality = 0;
  extents_.clear();
  for (size_t i = 0; i < records_.size(); ++i) {
    const Source& s = *records_[i];
    attr_offsets_[i] = offset;
    offset += s.attribute_count();
    if (!alive_[i]) continue;
    cardinality += s.cardinality();
    for (const auto& [name, value] : s.characteristics().values()) {
      extents_[name].Add(value);
    }
  }
  total_attrs_ = offset;
  total_cardinality_ = cardinality;
  RebuildNames();
}

void Universe::Extent::Add(double v) {
  if (v < lo) {
    lo = v;
    lo_holders = 1;
  } else if (v == lo) {
    ++lo_holders;
  }
  if (hi < v) {
    hi = v;
    hi_holders = 1;
  } else if (v == hi) {
    ++hi_holders;
  }
}

Universe::Extent Universe::ScanExtent(const std::string& characteristic) const {
  Extent e;
  for (size_t i = 0; i < records_.size(); ++i) {
    if (!alive_[i]) continue;
    const std::optional<double> v =
        records_[i]->characteristics().Get(characteristic);
    if (v.has_value()) e.Add(*v);
  }
  return e;
}

std::pair<double, double> Universe::CharacteristicRange(
    const std::string& characteristic) const {
  auto it = extents_.find(characteristic);
  if (it == extents_.end() || it->second.lo > it->second.hi) {
    return {0.0, 0.0};  // nobody reports it
  }
  return {it->second.lo, it->second.hi};
}

void Universe::IndexName(uint32_t id) {
  if (2 * records_.size() > name_slots_.capacity()) {
    RebuildNames();
    return;
  }
  const size_t mask = name_slots_.capacity() - 1;
  size_t p = HashBytes(records_[id]->name()) & mask;
  while (name_slots_[p] != 0) p = (p + 1) & mask;
  name_slots_.Mutable(p) = id + 1;
}

void Universe::RebuildNames() {
  size_t capacity = size_t{1} << kNameChunkBits;
  while (capacity < 2 * records_.size()) capacity *= 2;
  name_slots_ = {};
  name_slots_.Grow(capacity);
  for (uint32_t id = 0; id < records_.size(); ++id) IndexName(id);
}

std::optional<uint32_t> Universe::FindSource(const std::string& name) const {
  if (records_.empty()) return std::nullopt;
  std::optional<uint32_t> live_match;
  std::optional<uint32_t> retired_match;
  const size_t mask = name_slots_.capacity() - 1;
  for (size_t p = HashBytes(name) & mask; name_slots_[p] != 0;
       p = (p + 1) & mask) {
    const uint32_t id = name_slots_[p] - 1;
    if (records_[id]->name() != name) continue;
    std::optional<uint32_t>& match = alive_[id] ? live_match : retired_match;
    if (!match.has_value() || id < *match) match = id;
  }
  return live_match.has_value() ? live_match : retired_match;
}

const Attribute& Universe::attribute(const AttributeRef& ref) const {
  MUBE_CHECK(Contains(ref));
  return records_[ref.source_id]->attribute(ref.attr_index);
}

bool Universe::Contains(const AttributeRef& ref) const {
  return ref.source_id < records_.size() &&
         ref.attr_index < records_[ref.source_id]->attribute_count();
}

size_t Universe::GlobalAttrIndex(const AttributeRef& ref) const {
  MUBE_CHECK(Contains(ref));
  return attr_offsets_[ref.source_id] + ref.attr_index;
}

AttributeRef Universe::RefFromGlobalIndex(size_t global_index) const {
  MUBE_CHECK(global_index < total_attrs_);
  auto it = std::upper_bound(attr_offsets_.begin(), attr_offsets_.end(),
                             global_index);
  const uint32_t source_id = static_cast<uint32_t>(
      std::distance(attr_offsets_.begin(), it) - 1);
  return AttributeRef(
      source_id,
      static_cast<uint32_t>(global_index - attr_offsets_[source_id]));
}

}  // namespace mube
