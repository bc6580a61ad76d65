#ifndef MUBE_SCHEMA_UNIVERSE_H_
#define MUBE_SCHEMA_UNIVERSE_H_

#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <ranges>
#include <string>
#include <utility>
#include <vector>

#include "common/chunked_table.h"
#include "common/status.h"
#include "schema/attribute.h"
#include "schema/source.h"

/// \file universe.h
/// The universe U = {s_1, ..., s_N}: the catalog of all candidate sources
/// from which µBE selects a solution (paper §2.1). The universe also assigns
/// a dense *global attribute index* to every (source, attribute) pair so the
/// similarity layer can precompute a flat pairwise matrix.
///
/// Source churn (src/dynamic) retires sources instead of erasing them: a
/// retired source keeps its id and its slot in the global attribute index —
/// so every surviving source id and attribute index stays stable across
/// churn and the similarity matrix never needs reindexing — but sheds its
/// tuples, contributes nothing to the cardinality totals, and is skipped by
/// the optimizers. Retired slots are never reused; new sources always get
/// fresh ids at the end.
///
/// A universe is cheap to clone and cheap to churn: the source records sit
/// in copy-on-write chunks that clones share, and every derived statistic
/// (attribute offsets, totals, characteristic ranges, the name index) is
/// kept by the delta of each write, so an epoch publish costs in
/// proportion to its churn, not to |U|.

namespace mube {

/// \brief Owning catalog of sources. Source ids are dense indexes into the
/// universe and are assigned by AddSource.
class Universe {
 public:
  Universe() = default;

  // Movable; Clone() is the one way to duplicate a catalog, so every
  // place that does so says it does.
  Universe& operator=(const Universe&) = delete;
  Universe(Universe&&) = default;
  Universe& operator=(Universe&&) = default;

  /// A copy that shares every source record with this universe: the
  /// snapshot layer (src/serving) clones the current universe, applies
  /// churn to the clone, and publishes it while readers keep using the
  /// original. Ids, tombstones, and the attribute index are preserved
  /// bit-for-bit so every derived structure remains valid against the
  /// clone. Costs the chunk pointers plus the per-universe arrays (one word
  /// per source); a later write to either side copies only the 64-source
  /// chunk it touches.
  Universe Clone() const;

  /// Adds a source and assigns it the next dense id (overwriting any id the
  /// caller set). Returns the assigned id. Sources should be fully built
  /// (attributes + tuples + characteristics) before insertion; if one is
  /// mutated afterwards via mutable_source(), call RefreshStatistics().
  uint32_t AddSource(Source source);

  /// Recomputes every statistic the universe keeps — the global attribute
  /// index, the cardinality total, the characteristic ranges, and the name
  /// index — after in-place mutation of sources. O(|U|); the churn writes
  /// below keep them by their delta instead.
  void RefreshStatistics();

  /// Marks a source as removed from the universe. Its slot (id, attribute
  /// index range) survives as a tombstone so derived per-attribute state
  /// stays valid, but the source stops shipping tuples, counts for nothing
  /// in the cardinality totals or the characteristic ranges, and must never
  /// appear in a solution. Retiring an already-retired source is a no-op.
  void RetireSource(uint32_t id);

  /// Replaces a source's tuples (Source::SetTuples) and moves the
  /// cardinality total by the difference.
  void UpdateTuples(uint32_t id, std::vector<uint64_t> tuple_ids);

  /// False iff the source was retired. Out-of-range ids are not alive.
  bool alive(uint32_t id) const {
    return id < alive_.size() && alive_[id];
  }

  /// Number of live (non-retired) sources.
  size_t alive_count() const { return alive_count_; }

  /// Ids of all live sources, ascending.
  std::vector<uint32_t> AliveSourceIds() const;

  /// Number of source slots, retired ones included. Dense ids live in
  /// [0, size()).
  size_t size() const { return records_.size(); }
  bool empty() const { return records_.empty(); }

  const Source& source(uint32_t id) const { return *records_[id]; }
  /// The source for in-place mutation. Only the statistics of
  /// RefreshStatistics() go stale: call it after changing a source's
  /// name, attribute count, cardinality, or characteristics.
  Source& mutable_source(uint32_t id);
  /// Every source slot in id order, retired ones included.
  auto sources() const {
    return std::views::transform(
        records_, [](const Source* s) -> const Source& { return *s; });
  }

  /// Id of the source named `name`, if present. Live sources are
  /// preferred (the lowest live id); a retired source (the lowest id) is
  /// only reported when no live source carries the name.
  std::optional<uint32_t> FindSource(const std::string& name) const;

  /// Looks up an attribute by reference. CHECK-fails on out-of-range refs —
  /// an AttributeRef that does not resolve is a programming error.
  const Attribute& attribute(const AttributeRef& ref) const;

  /// True iff `ref` resolves within this universe.
  bool Contains(const AttributeRef& ref) const;

  /// \name Dense global attribute indexing
  /// Every (source, attribute) pair receives a stable flat index in
  /// [0, total_attribute_count()), in source-id order then attribute order.
  /// @{
  size_t total_attribute_count() const { return attr_offsets_.empty() ? 0 : total_attrs_; }
  size_t GlobalAttrIndex(const AttributeRef& ref) const;
  AttributeRef RefFromGlobalIndex(size_t global_index) const;
  /// @}

  /// Total number of tuples Σ|s| over all live sources (denominator of the
  /// Card QEF).
  uint64_t total_cardinality() const { return total_cardinality_; }

  /// [min, max] of a characteristic over the live sources that report it;
  /// {0, 0} when none does. Bit-identical to a scan in id order.
  std::pair<double, double> CharacteristicRange(
      const std::string& characteristic) const;

 private:
  static constexpr size_t kSourceChunkBits = 6;
  static constexpr size_t kNameChunkBits = 10;

  // Clone(): copies share the chunked tables and copy the rest.
  Universe(const Universe&) = default;

  /// A characteristic's [lo, hi] over the live sources, and how many live
  /// sources hold each end.
  struct Extent {
    double lo = std::numeric_limits<double>::infinity();
    double hi = -std::numeric_limits<double>::infinity();
    uint32_t lo_holders = 0;
    uint32_t hi_holders = 0;

    /// Counts in one more value with the comparisons of std::min and
    /// std::max, as a scan in id order makes them: an equal value never
    /// replaces an end, so each end keeps the bits of its lowest-id holder.
    void Add(double v);
  };

  /// Points records_ at the sources of `id`'s chunk.
  void RepointChunk(uint32_t id);
  /// The extent of `characteristic` scanned over the live sources.
  Extent ScanExtent(const std::string& characteristic) const;
  /// Files source `id` under its name in the name index.
  void IndexName(uint32_t id);
  /// Rebuilds the name index at the smallest size that is at most half
  /// full.
  void RebuildNames();

  ChunkedTable<Source, kSourceChunkBits> sources_;
  std::vector<const Source*> records_;  // records_[i] = &sources_[i]
  std::vector<bool> alive_;             // parallel to records_
  size_t alive_count_ = 0;
  std::vector<size_t> attr_offsets_;  // attr_offsets_[i] = flat index of s_i.a_0
  size_t total_attrs_ = 0;
  uint64_t total_cardinality_ = 0;
  std::map<std::string, Extent> extents_;
  // Open addressing over hash(name): slot p holds id + 1, 0 when empty.
  // Every source has one slot, and the table is kept at most half full.
  ChunkedTable<uint32_t, kNameChunkBits> name_slots_;
};

}  // namespace mube

#endif  // MUBE_SCHEMA_UNIVERSE_H_
