#include "text/sparse_similarity.h"

#include <algorithm>
#include <bit>
#include <iterator>
#include <utility>

#include "common/hash.h"
#include "common/logging.h"
#include "common/threading.h"
#include "schema/universe.h"
#include "text/ngram.h"

namespace mube {

namespace {

/// Blocking geometry. Postings lists longer than kMaxGramDf are skipped
/// during candidate generation (stop-grams; LSH can still recover their
/// pairs). Each attribute gets kBands (8) bands of kBandRows minhash
/// values from a HashFamily seeded with kSeed; a pair with Jaccard s
/// collides in some band with probability 1 − (1 − s^kBandRows)^kBands.
/// Buckets larger than kMaxBandBucket are skipped (degenerate bands).
constexpr size_t kBandRows = 4;
constexpr uint64_t kSeed = 0x6d756265ULL;  // "mube"

/// First position in the ascending range [first, last) not less than
/// `value`, found by probing first+1, first+3, first+7, ... and then
/// binary-searching the last gap: O(log distance), so a merge of two
/// ascending lists built on it costs O(a + b) when they interleave and
/// O(min · log max) when one is much shorter.
const uint32_t* Gallop(const uint32_t* first, const uint32_t* last,
                       uint32_t value) {
  ptrdiff_t step = 1;
  while (last - first > step && first[step] < value) {
    first += step;
    step *= 2;
  }
  return std::lower_bound(first, last - first > step ? first + step + 1 : last,
                          value);
}

/// A shared buffer of `count` elements, left uninitialized for the caller
/// to fill; null when there are none.
template <typename T>
std::shared_ptr<T[]> NewBuffer(size_t count) {
  return count == 0 ? nullptr : std::make_shared_for_overwrite<T[]>(count);
}

/// Unordered pairs among `count` items.
uint64_t Pairs(uint64_t count) {
  return count * (count - (count > 0 ? 1 : 0)) / 2;
}

/// The top bits of x · 2⁶⁴/φ (Fibonacci hashing): a slot in a table of
/// 2^(64 − shift) slots.
size_t FibonacciSlot(uint64_t x, unsigned shift) {
  return static_cast<size_t>((x * 0x9E3779B97F4A7C15ULL) >> shift);
}

/// `base` with the ids of `removes` taken out and those of `adds` put in
/// (all ascending; `id` reads an element's id), written to `out` as runs
/// copied between the changes. Returns the end of what it wrote.
template <typename Changes, typename Id>
uint32_t* MergeList(std::span<const uint32_t> base, const Changes& removes,
                    const Changes& adds, Id id, uint32_t* out) {
  const uint32_t* from = base.data();
  const uint32_t* const end = from + base.size();
  auto r = removes.begin();
  auto a = adds.begin();
  while (r != removes.end() || a != adds.end()) {
    const bool remove =
        r != removes.end() && (a == adds.end() || id(*r) <= id(*a));
    const uint32_t change = remove ? id(*r++) : id(*a++);
    const uint32_t* const run_end =
        remove ? std::lower_bound(from, end, change)
               : std::upper_bound(from, end, change);
    out = std::copy(from, run_end, out);
    from = run_end;
    if (remove) {
      MUBE_CHECK(from != end && *from == change);  // it was listed
      ++from;
    } else {
      *out++ = change;
    }
  }
  return std::copy(from, end, out);
}

uint32_t Id(uint32_t id) { return id; }

/// Values by attribute id, open-addressed over a hash of the id and at
/// most half full, so its size follows the ids it holds: the delta-sized
/// stand-in for an array with an entry per attribute. A slot holds an id
/// with the stamp of the round that wrote it, and Clear() starts a new
/// round, so emptying the map costs O(1).
template <typename V>
class IdMap {
 public:
  /// The value of `id` (value-initialized if new), and whether it is new.
  std::pair<V*, bool> Insert(uint32_t id) {
    if (2 * (size_ + 1) > slots_.size()) Rehash(2 * (size_ + 1));
    const size_t p = Probe(id);
    if (slots_[p] == Entry(id)) return {&values_[p], false};
    slots_[p] = Entry(id);
    values_[p] = V{};
    ++size_;
    return {&values_[p], true};
  }

  /// The value of `id`; null if the map does not hold it.
  const V* Find(uint32_t id) const {
    if (size_ == 0) return nullptr;
    const size_t p = Probe(id);
    return slots_[p] == Entry(id) ? &values_[p] : nullptr;
  }
  V* Find(uint32_t id) {
    return const_cast<V*>(std::as_const(*this).Find(id));
  }

  /// Makes room for `count` ids in all without a rehash.
  void Reserve(size_t count) {
    if (2 * count > slots_.size()) Rehash(2 * count);
  }

  void Clear() {
    size_ = 0;
    if (++stamp_ == uint64_t{1} << 32) {
      std::fill(slots_.begin(), slots_.end(), 0);
      stamp_ = 1;
    }
  }

  /// The ids held, in no particular order.
  std::vector<uint32_t> Ids() const {
    std::vector<uint32_t> ids;
    for (uint64_t slot : slots_) {
      if (slot >> 32 == stamp_) ids.push_back(static_cast<uint32_t>(slot));
    }
    return ids;
  }

 private:
  uint64_t Entry(uint32_t id) const { return stamp_ << 32 | id; }

  /// The slot holding `id`, or the empty slot where it would go.
  size_t Probe(uint32_t id) const {
    const size_t mask = slots_.size() - 1;
    size_t p = FibonacciSlot(id, shift_);
    while (slots_[p] >> 32 == stamp_ && slots_[p] != Entry(id)) {
      p = (p + 1) & mask;
    }
    return p;
  }

  /// Moves the ids to a table of at least `min_slots` slots.
  void Rehash(size_t min_slots) {
    size_t capacity = std::max<size_t>(64, 2 * slots_.size());
    while (capacity < min_slots) capacity *= 2;
    std::vector<uint64_t> old_slots(capacity, 0);
    std::vector<V> old_values(capacity);
    old_slots.swap(slots_);  // old_slots and old_values now hold the table
    old_values.swap(values_);
    shift_ = 64 - static_cast<unsigned>(std::countr_zero(capacity));
    for (size_t q = 0; q < old_slots.size(); ++q) {
      if (old_slots[q] >> 32 != stamp_) continue;
      const size_t p = Probe(static_cast<uint32_t>(old_slots[q]));
      slots_[p] = old_slots[q];
      values_[p] = old_values[q];
    }
  }

  std::vector<uint64_t> slots_;  // stamp << 32 | id; stamp 0 is never current
  std::vector<V> values_;
  uint64_t stamp_ = 1;
  size_t size_ = 0;
  unsigned shift_ = 64;
};

}  // namespace

/// An id set: an IdMap whose values are unused.
class SparseSimilarityIndex::IdSet : public IdMap<char> {};

/// The rows a churn's splice writes — the re-verified ones and every row
/// that gains or loses entries — with their counts, by row id. They sit
/// in a flat array over all rows when the re-verified rows are at least
/// an eighth of them (a build), else in an IdMap of the touched rows, so
/// their size follows the delta either way.
class SparseSimilarityIndex::TouchedRows {
 public:
  struct Counts {
    uint32_t gained = 0;  // mirrors of the re-verified rows' entries
    uint32_t lost = 0;    // old entries toward re-verified rows
  };

  TouchedRows(size_t n, const std::vector<uint32_t>& reverify)
      : reverify_(reverify), dense_(8 * reverify.size() >= n) {
    if (dense_) {
      flat_.resize(n);
    } else {
      map_.Reserve(reverify.size());
      for (uint32_t i : reverify) map_.Insert(i);
    }
  }

  /// The counts of `row`, which joins the touched rows.
  Counts& operator[](uint32_t row) {
    return dense_ ? flat_[row] : *map_.Insert(row).first;
  }

  /// The counts of `row`, which is touched already. Rows that are not
  /// the same may be written from several threads.
  Counts& At(uint32_t row) { return dense_ ? flat_[row] : *map_.Find(row); }

  /// The counts of `row`; zero if it is not touched.
  Counts Get(uint32_t row) const {
    if (dense_) return flat_[row];
    const Counts* counts = map_.Find(row);
    return counts == nullptr ? Counts{} : *counts;
  }

  /// The touched rows, ascending.
  std::vector<uint32_t> Rows() const {
    if (!dense_) {
      std::vector<uint32_t> rows = map_.Ids();
      std::sort(rows.begin(), rows.end());
      return rows;
    }
    std::vector<uint32_t> rows;
    auto r = reverify_.begin();
    for (uint32_t i = 0; i < flat_.size(); ++i) {
      const bool reverified = r != reverify_.end() && *r == i;
      r += reverified ? 1 : 0;
      if (reverified || flat_[i].gained > 0 || flat_[i].lost > 0) {
        rows.push_back(i);
      }
    }
    return rows;
  }

 private:
  const std::vector<uint32_t>& reverify_;
  const bool dense_;
  std::vector<Counts> flat_;
  IdMap<Counts> map_;
};

bool SparseSimilarityIndex::Reverified::Contains(uint32_t j) const {
  return j < first_clean || above->Find(j) != nullptr;
}

SparseSimilarityIndex::SparseSimilarityIndex(const Universe& universe,
                                             const SimilarityMeasure& measure,
                                             SparseIndexOptions options,
                                             unsigned threads)
    : options_(options) {
  static_assert(kBands >= 1 && kBandRows >= 1);
  MUBE_CHECK(options_.index_theta > 0.0);
  Rebuild(universe, measure, threads);
}

SparseSimilarityIndex::SegmentWrite::SegmentWrite(Segments& segments,
                                                  size_t written,
                                                  size_t live_after)
    : segments_(segments), live_after_(live_after) {
  const size_t dead = segments.size + written - live_after;
  compact_ = static_cast<double>(dead) >
             kMaxDeadShare * static_cast<double>(live_after);
  count_ = compact_ ? live_after : written;
}

template <typename OldSize, typename Place>
void SparseSimilarityIndex::SegmentWrite::Layout(
    const std::vector<uint32_t>& touched, const std::vector<size_t>& sizes,
    size_t records, OldSize old_size, Place place) const {
  size_t at = 0;
  auto write = [&](size_t i, size_t size, size_t k) {
    place(i, at, size, k);
    at += size;
  };
  if (!compact_) {
    for (size_t k = 0; k < touched.size(); ++k) write(touched[k], sizes[k], k);
  } else {
    for (size_t i = 0, k = 0; i < records; ++i) {
      if (k < touched.size() && touched[k] == i) {
        write(i, sizes[k], k);
        ++k;
      } else if (const size_t size = old_size(i); size > 0) {
        write(i, size, kKept);
      }
    }
  }
  MUBE_CHECK(at == count_);
}

void SparseSimilarityIndex::SegmentWrite::Commit(
    std::initializer_list<std::shared_ptr<const void>> buffers) {
  if (compact_) {
    segments_.buffers.clear();
    segments_.size = 0;
  }
  if (count_ > 0) {
    segments_.buffers.insert(segments_.buffers.end(), buffers);
  }
  segments_.size += count_;
  segments_.live = live_after_;
}

size_t SparseSimilarityIndex::KeyedLists::Home(uint64_t key) const {
  return static_cast<size_t>(Mix64(key)) & (slots.capacity() - 1);
}

size_t SparseSimilarityIndex::KeyedLists::Position(uint64_t key) const {
  const size_t mask = slots.capacity() - 1;
  size_t p = Home(key);
  while (slots[p].size != 0 && slots[p].key != key) p = (p + 1) & mask;
  return p;
}

std::span<const uint32_t> SparseSimilarityIndex::KeyedLists::Find(
    uint64_t key) const {
  if (keys == 0) return {};
  const Slot& slot = slots[Position(key)];
  if (slot.size > cap) return {};
  return {slot.attrs, slot.size};
}

void SparseSimilarityIndex::KeyedLists::Reserve(size_t more) {
  if (2 * (keys + more) <= slots.capacity()) return;
  size_t capacity = std::max(slots.capacity(), size_t{1} << kKeyChunkBits);
  while (capacity < 2 * (keys + more)) capacity *= 2;
  const ChunkedTable<Slot, kKeyChunkBits> old = std::move(slots);
  slots = {};
  slots.Grow(capacity);
  for (size_t q = 0; q < old.capacity(); ++q) {
    if (old[q].size != 0) slots.Mutable(Position(old[q].key)) = old[q];
  }
}

void SparseSimilarityIndex::KeyedLists::Erase(size_t p) {
  const size_t mask = slots.capacity() - 1;
  for (size_t q = (p + 1) & mask; slots[q].size != 0; q = (q + 1) & mask) {
    // Slot q's key moves back to p unless its home lies in (p, q].
    if (((q - Home(slots[q].key)) & mask) < ((q - p) & mask)) continue;
    slots.Mutable(p) = slots[q];
    p = q;
  }
  slots.Mutable(p) = Slot{};
  --keys;
}

void SparseSimilarityIndex::KeyedLists::Apply(
    std::vector<KeyedAttr> removed, std::vector<KeyedAttr> added,
    std::vector<uint32_t>& flipped) {
  // Each touched key: its old slot, its new size and its entries of the
  // delta. A key above the cap before and after, or with pending changes
  // already, gets its changes against the old base — the old pending
  // changes composed with the delta — at changes[begin, begin + adds +
  // removes), adds first.
  struct Touched {
    Slot old;
    uint32_t size = 0;
    std::span<const KeyedAttr> removed, added;
    bool composed = false;
    size_t begin = 0, adds = 0, removes = 0;
    const uint32_t* list = nullptr;  // the whole new list, once written
  };
  auto attr_of = [](const KeyedAttr& e) { return e.attr; };
  std::vector<Touched> touched;
  std::vector<uint32_t> changes, delta_removes, delta_adds, kept, fresh;
  size_t old_entries = 0;
  size_t new_keys = 0;
  for (auto r = removed.begin(), a = added.begin();
       r != removed.end() || a != added.end();) {
    const uint64_t key =
        (a == added.end() || (r != removed.end() && r->key < a->key))
            ? r->key
            : a->key;
    Touched t;
    const auto r_begin = r;
    while (r != removed.end() && r->key == key) ++r;
    const auto a_begin = a;
    while (a != added.end() && a->key == key) ++a;
    t.removed = {r_begin, r};
    t.added = {a_begin, a};
    if (keys > 0 && slots[Position(key)].size > 0) {
      t.old = slots[Position(key)];
    } else {
      t.old.key = key;
      ++new_keys;
    }
    old_entries += t.old.size;
    MUBE_CHECK(t.old.size + t.added.size() >= t.removed.size());
    t.size = static_cast<uint32_t>(t.old.size + t.added.size() -
                                   t.removed.size());
    t.composed = t.old.adds + t.old.removes > 0 ||
                 (t.old.size > cap && t.size > cap);
    if (t.composed) {
      // An id both removed and added (an attribute that keeps the key)
      // stays. A removed id must be listed and an added one must not be.
      // Pending adds the delta removes cancel out, and so do pending
      // removes it adds back; the rest of the delta joins the pending
      // changes.
      delta_removes.clear();
      for (const KeyedAttr& e : t.removed) delta_removes.push_back(e.attr);
      delta_adds.clear();
      for (const KeyedAttr& e : t.added) delta_adds.push_back(e.attr);
      kept.clear();
      std::set_intersection(delta_removes.begin(), delta_removes.end(),
                            delta_adds.begin(), delta_adds.end(),
                            std::back_inserter(kept));
      for (std::vector<uint32_t>* ids : {&delta_removes, &delta_adds}) {
        fresh.clear();
        std::set_difference(ids->begin(), ids->end(), kept.begin(),
                            kept.end(), std::back_inserter(fresh));
        ids->swap(fresh);
      }
      const std::span<const uint32_t> base = t.old.Base();
      const std::span<const uint32_t> adds = t.old.Adds();
      const std::span<const uint32_t> removes = t.old.Removes();
      auto listed = [&](uint32_t id) {
        return std::binary_search(adds.begin(), adds.end(), id) ||
               (std::binary_search(base.begin(), base.end(), id) &&
                !std::binary_search(removes.begin(), removes.end(), id));
      };
      // Appends the pending changes of one kind: the old ones (`pending`)
      // less those the delta's `cancelling` ids undo, merged with the
      // delta's `joining` ids that undo none of the `opposite` old ones.
      auto compose = [&](std::span<const uint32_t> pending,
                         const std::vector<uint32_t>& cancelling,
                         const std::vector<uint32_t>& joining,
                         std::span<const uint32_t> opposite, bool adding) {
        kept.clear();
        std::set_difference(pending.begin(), pending.end(),
                            cancelling.begin(), cancelling.end(),
                            std::back_inserter(kept));
        fresh.clear();
        for (uint32_t id : joining) {
          MUBE_CHECK(listed(id) != adding);
          if (!std::binary_search(opposite.begin(), opposite.end(), id)) {
            fresh.push_back(id);
          }
        }
        std::merge(kept.begin(), kept.end(), fresh.begin(), fresh.end(),
                   std::back_inserter(changes));
      };
      t.begin = changes.size();
      compose(adds, delta_removes, delta_adds, removes, /*adding=*/true);
      t.adds = changes.size() - t.begin;
      compose(removes, delta_adds, delta_removes, adds, /*adding=*/false);
      t.removes = changes.size() - t.begin - t.adds;
    }
    touched.push_back(t);
  }

  // Every touched key gets a slot (a new key holds its size until it is
  // placed), and the slots are written in ascending order. A list that
  // stays above the cap gets its pending changes written, any other its
  // whole new list.
  Reserve(new_keys);
  std::vector<std::pair<uint32_t, uint32_t>> order;  // (slot, touched key)
  for (size_t k = 0; k < touched.size(); ++k) {
    const size_t p = Position(touched[k].old.key);
    if (slots[p].size == 0) {
      slots.Mutable(p) = Slot{touched[k].old.key, nullptr, nullptr,
                              touched[k].size, 0, 0};
      ++keys;
    }
    order.emplace_back(static_cast<uint32_t>(p), static_cast<uint32_t>(k));
  }
  std::sort(order.begin(), order.end());
  auto pending_only = [&](const Touched& t) {
    return t.old.size > cap && t.size > cap;
  };
  std::vector<uint32_t> positions;
  std::vector<size_t> written_sizes, whole_sizes;
  size_t written = 0;
  size_t listed_after = segments.live - old_entries;
  for (const auto& [p, k] : order) {
    const Touched& t = touched[k];
    positions.push_back(p);
    whole_sizes.push_back(t.size);
    written_sizes.push_back(pending_only(t) ? t.adds + t.removes : t.size);
    written += written_sizes.back();
    listed_after += t.size;
  }

  // Compacting, every list is written whole.
  SegmentWrite write(segments, written, listed_after);
  std::shared_ptr<uint32_t[]> segment = NewBuffer<uint32_t>(write.count());
  write.Layout(
      positions, write.compact() ? whole_sizes : written_sizes,
      slots.capacity(),
      [&](size_t p) { return static_cast<size_t>(slots[p].size); },
      [&](size_t p, size_t at, size_t size, size_t k) {
        uint32_t* const out = segment.get() + at;
        if (k == SegmentWrite::kKept) {
          const Slot old = slots[p];
          MergeList(old.Base(), old.Removes(), old.Adds(), Id, out);
          slots.Mutable(p) = Slot{old.key, out, nullptr, old.size, 0, 0};
          return;
        }
        Touched& t = touched[order[k].second];
        if (t.size == 0) return;  // the key leaves the table below
        const std::span<const uint32_t> adds(changes.data() + t.begin,
                                             t.adds);
        const std::span<const uint32_t> removes(adds.data() + t.adds,
                                                t.removes);
        if (!write.compact() && pending_only(t)) {
          std::copy(adds.data(), adds.data() + size, out);
          slots.Mutable(p) =
              Slot{t.old.key, t.old.attrs, out, t.size,
                   static_cast<uint32_t>(t.adds),
                   static_cast<uint32_t>(t.removes)};
          return;
        }
        const uint32_t* const end =
            t.composed ? MergeList(t.old.Base(), removes, adds, Id, out)
                       : MergeList(t.old.Base(), t.removed, t.added, attr_of,
                                   out);
        MUBE_CHECK(end == out + size);
        t.list = out;
        slots.Mutable(p) = Slot{t.old.key, out, nullptr, t.size, 0, 0};
      });
  write.Commit({std::move(segment)});
  for (const Touched& t : touched) {
    // A key that is new or vanished needs no flag: every attribute it
    // lists or listed was refreshed.
    if (t.old.size > 0 && t.size > 0 &&
        (t.old.size > cap) != (t.size > cap)) {
      flipped.insert(flipped.end(), t.list, t.list + t.size);
    }
    if (t.size == 0) Erase(Position(t.old.key));
  }
}

size_t SparseSimilarityIndex::KeyedLists::MemoryBytes() const {
  return slots.MemoryBytes() + segments.size * sizeof(uint32_t);
}

double SparseSimilarityIndex::ExactPair(size_t i, size_t j) const {
  if (i > j) std::swap(i, j);  // canonical order: one float per pair
  const std::span<const uint64_t> a = TokensOf(i);
  const std::span<const uint64_t> b = TokensOf(j);
  const double sim =
      use_counts_
          ? measure_->SimilarityFromCounts(SortedIntersectionSize(a, b),
                                           a.size(), b.size())
          : measure_->SimilarityFromTokens({a.begin(), a.end()},
                                           {b.begin(), b.end()});
  // The same float promotion a dense cell goes through, so stored scores,
  // fallback scores, and SimilarityMatrix entries are bit-identical.
  return static_cast<double>(static_cast<float>(sim));
}

double SparseSimilarityIndex::At(size_t i, size_t j) const {
  if (i == j) return 0.0;
  // A stored pair is cross-source and live by construction, so it needs
  // no further check.
  const Row& row = RowOf(i);
  const uint32_t* const end = row.attr + row.size;
  const uint32_t* const it =
      std::lower_bound(row.attr, end, static_cast<uint32_t>(j));
  if (it != end && *it == j) return row.sim[it - row.attr];
  const AttrFacts& fi = facts_[i];
  const AttrFacts& fj = facts_[j];
  if (fi.source == fj.source || !fi.live || !fj.live) return 0.0;
  return ExactPair(i, j);
}

void SparseSimilarityIndex::ForEachNeighborAtLeast(
    size_t i, double theta, const NeighborFn& fn) const {
  const Row& row = RowOf(i);
  for (uint32_t k = 0; k < row.size; ++k) {
    if (static_cast<double>(row.sim[k]) >= theta) fn(row.attr[k], row.sim[k]);
  }
}

void SparseSimilarityIndex::SubsetEdgesAtLeast(
    const std::vector<uint32_t>& attrs, double theta,
    std::vector<SubsetEdge>& edges) const {
  const uint32_t* const subset_begin = attrs.data();
  const uint32_t* const subset_end = subset_begin + attrs.size();
  for (uint32_t u = 0; u < attrs.size(); ++u) {
    const Row& row = RowOf(attrs[u]);
    const uint32_t* const r_end = row.attr + row.size;
    const uint32_t* r = std::upper_bound(row.attr, r_end, attrs[u]);
    const uint32_t* a = subset_begin + u + 1;
    while (a != subset_end && r != r_end) {
      if (*r < *a) {
        r = Gallop(r + 1, r_end, *a);
      } else if (*a < *r) {
        a = Gallop(a + 1, subset_end, *r);
      } else {
        const float sim = row.sim[r - row.attr];
        if (static_cast<double>(sim) >= theta) {
          edges.push_back({u, static_cast<uint32_t>(a - subset_begin), sim});
        }
        ++a;
        ++r;
      }
    }
  }
}

size_t SparseSimilarityIndex::MemoryBytes() const {
  return facts_.MemoryBytes() + token_segments_.size * sizeof(uint64_t) +
         postings_.MemoryBytes() + buckets_.MemoryBytes() +
         rows_.MemoryBytes() +
         row_segments_.size * (sizeof(uint32_t) + sizeof(float));
}

std::vector<uint32_t> SparseSimilarityIndex::RefreshAttributes(
    const Universe& universe, const SimilarityMeasure& measure, size_t old_n,
    const std::vector<uint32_t>& refreshed) {
  FactsTable facts = facts_;
  facts.Grow(n_);
  if (old_n < n_) {
    // Appended attributes belong to the sources from old_n's on.
    for (uint32_t sid = universe.RefFromGlobalIndex(old_n).source_id;
         sid < universe.size(); ++sid) {
      for (uint32_t a = 0; a < universe.source(sid).attribute_count(); ++a) {
        const size_t i = universe.GlobalAttrIndex(AttributeRef(sid, a));
        if (i >= old_n) facts.Mutable(i).source = sid;
      }
    }
  }

  // New band keys and tokens of the refreshed attributes, staged back to
  // back in ascending order. Tokens are only ever set for live attributes,
  // so a refreshed attribute's old ones are exactly its entries in the
  // postings and buckets.
  std::vector<uint64_t> staged;
  std::vector<size_t> sizes;
  size_t live_words = token_segments_.live;
  std::vector<KeyedAttr> gram_removed, gram_added, band_removed, band_added;
  const HashFamily family(kBands * kBandRows, kSeed);
  std::vector<uint64_t> minvals(kBands * kBandRows);
  for (uint32_t id : refreshed) {
    AttrFacts& f = facts.Mutable(id);
    if (f.data != nullptr) {
      for (uint64_t gram : std::span(f.data + kBands, f.token_count)) {
        gram_removed.push_back({gram, id});
      }
      for (size_t b = 0; b < kBands; ++b) {
        band_removed.push_back({f.data[b], id});
      }
      live_words -= kBands + f.token_count;
    }
    live_attrs_ -= f.live;
    f.live = universe.alive(f.source) ? 1 : 0;
    live_attrs_ += f.live;
    f.data = nullptr;
    f.token_count = 0;
    const size_t begin = staged.size();
    std::vector<uint64_t> tokens;
    if (f.live) {
      tokens = measure.PrepareTokens(
          universe.attribute(universe.RefFromGlobalIndex(id)).normalized);
    }
    if (!tokens.empty()) {
      f.token_count = static_cast<uint32_t>(tokens.size());
      std::fill(minvals.begin(), minvals.end(), ~0ULL);
      for (uint64_t gram : tokens) {
        gram_added.push_back({gram, id});
        for (size_t k = 0; k < minvals.size(); ++k) {
          minvals[k] = std::min(minvals[k], family.Hash(k, gram));
        }
      }
      for (size_t b = 0; b < kBands; ++b) {
        // Salting with the band id keeps bands in disjoint key spaces, so
        // one bucket table can hold all bands without cross-band
        // collisions.
        uint64_t h = Mix64(kSeed ^ (b + 1));
        for (size_t r = 0; r < kBandRows; ++r) {
          h = HashCombine(h, minvals[b * kBandRows + r]);
        }
        staged.push_back(h);
        band_added.push_back({h, id});
      }
      staged.insert(staged.end(), tokens.begin(), tokens.end());
    }
    sizes.push_back(staged.size() - begin);
    live_words += sizes.back();
  }

  // The staged words go into a new token segment; compacting, so do every
  // other live attribute's, copied from the segments they were in.
  SegmentWrite write(token_segments_, staged.size(), live_words);
  std::shared_ptr<uint64_t[]> segment = NewBuffer<uint64_t>(write.count());
  const uint64_t* from = staged.data();
  write.Layout(
      refreshed, sizes, n_,
      [&](size_t i) {
        return facts[i].data == nullptr ? 0 : kBands + facts[i].token_count;
      },
      [&](size_t i, size_t at, size_t size, size_t k) {
        AttrFacts& f = facts.Mutable(i);
        const uint64_t* words = f.data;
        if (k != SegmentWrite::kKept) {
          words = from;
          from += size;
        }
        if (size == 0) return;
        std::copy(words, words + size, segment.get() + at);
        f.data = segment.get() + at;
      });
  facts_ = std::move(facts);
  write.Commit({std::move(segment)});

  std::vector<uint32_t> flipped;
  for (std::vector<KeyedAttr>* pairs :
       {&gram_removed, &gram_added, &band_removed, &band_added}) {
    std::sort(pairs->begin(), pairs->end());
  }
  // Each delta is freed once applied, so a build holds one at a time.
  postings_.Apply(std::move(gram_removed), std::move(gram_added), flipped);
  buckets_.Apply(std::move(band_removed), std::move(band_added), flipped);
  return flipped;
}

void SparseSimilarityIndex::GenerateCandidates(
    size_t i, const Reverified& reverified, IdSet& seen,
    std::vector<uint32_t>& out) const {
  const FactsTable& facts = facts_;
  const uint32_t me = static_cast<uint32_t>(i);
  const uint32_t my_source = facts[i].source;
  // Lists are ascending, and every partner below the first clean
  // attribute is skipped, so the scan starts there (or at i itself).
  const uint32_t scan_from = std::min(me, reverified.first_clean);
  // The attributes listed under `key`, unless more than `cap` are.
  auto scan = [&](const KeyedLists& lists, uint64_t key, size_t cap) {
    const std::span<const uint32_t> list = lists.Find(key);
    if (list.size() > cap) return;
    for (auto p = std::lower_bound(list.begin(), list.end(), scan_from);
         p != list.end(); ++p) {
      const uint32_t j = *p;
      // A pair with both rows being re-verified is scored once, by the
      // smaller-indexed row; the other row gets it mirrored back.
      if (j <= me && (j == me || reverified.Contains(j))) continue;
      if (!seen.Insert(j).second || facts[j].source == my_source) continue;
      out.push_back(j);
    }
  };
  for (uint64_t gram : TokensOf(i)) {
    scan(postings_, gram, kMaxGramDf);  // stop-grams are LSH's job
  }
  const uint64_t* const band_keys = facts[i].data;
  for (size_t b = 0; band_keys != nullptr && b < kBands; ++b) {
    scan(buckets_, band_keys[b], kMaxBandBucket);  // skip degenerate bands
  }
}

void SparseSimilarityIndex::VerifyRow(size_t i, const Reverified& reverified,
                                      IdSet& seen,
                                      std::vector<uint32_t>& cand_scratch,
                                      uint64_t& measure_calls,
                                      std::vector<RowEntry>& out) const {
  if (facts_[i].data == nullptr) return;  // dead or token-less
  cand_scratch.clear();
  GenerateCandidates(i, reverified, seen, cand_scratch);
  seen.Clear();
  measure_calls += cand_scratch.size();
  const size_t begin = out.size();
  for (uint32_t j : cand_scratch) {
    const double sim = ExactPair(i, j);
    const float stored = static_cast<float>(sim);
    if (static_cast<double>(stored) >= options_.index_theta) {
      out.push_back(RowEntry{j, stored});
    }
  }
  std::sort(out.begin() + static_cast<ptrdiff_t>(begin), out.end(),
            [](const RowEntry& a, const RowEntry& b) {
              return a.attr < b.attr;
            });
}

void SparseSimilarityIndex::Rebuild(const Universe& universe,
                                    const SimilarityMeasure& measure,
                                    unsigned threads) {
  // A build is the churn splice from the empty index: every attribute is
  // appended, hence dirty, and every row is verified.
  *this = SparseSimilarityIndex(options_);
  ApplyChurn(universe, measure, /*dirty_sources=*/{}, threads);
}

void SparseSimilarityIndex::ApplyChurn(
    const Universe& universe, const SimilarityMeasure& measure,
    const std::vector<uint32_t>& dirty_sources, unsigned threads) {
  MUBE_CHECK(measure.SupportsPreparedTokens());
  measure_ = &measure;
  use_counts_ = measure.SupportsSetCounts();

  // Churn only appends attributes (a retired source keeps its slots), so
  // every index below the old count names the same attribute.
  const size_t old_n = n_;
  n_ = universe.total_attribute_count();
  MUBE_CHECK(n_ >= old_n);

  // Refreshed attributes: the dirty sources' and the appended ones.
  std::vector<uint32_t> refreshed;
  for (uint32_t sid : dirty_sources) {
    const Source& s = universe.source(sid);
    for (uint32_t a = 0; a < s.attribute_count(); ++a) {
      const size_t i = universe.GlobalAttrIndex(AttributeRef(sid, a));
      if (i < old_n) refreshed.push_back(static_cast<uint32_t>(i));
    }
  }
  std::sort(refreshed.begin(), refreshed.end());
  refreshed.erase(std::unique(refreshed.begin(), refreshed.end()),
                  refreshed.end());
  for (size_t i = old_n; i < n_; ++i) {
    refreshed.push_back(static_cast<uint32_t>(i));
  }
  // Re-verified rows: those, and the attributes of every gram or bucket
  // whose size crossed its pruning cap.
  std::vector<uint32_t> flipped =
      RefreshAttributes(universe, measure, old_n, refreshed);
  std::sort(flipped.begin(), flipped.end());
  std::vector<uint32_t> reverify;
  std::set_union(refreshed.begin(), refreshed.end(), flipped.begin(),
                 std::unique(flipped.begin(), flipped.end()),
                 std::back_inserter(reverify));

  Reverified reverified;
  while (reverified.first_clean < reverify.size() &&
         reverify[reverified.first_clean] == reverified.first_clean) {
    ++reverified.first_clean;
  }
  IdSet above;
  above.Reserve(reverify.size() - reverified.first_clean);
  for (size_t r = reverified.first_clean; r < reverify.size(); ++r) {
    above.Insert(reverify[r]);
  }
  reverified.above = &above;

  ThreadPool pool(ResolveThreadCount(threads));
  const Verified verified = VerifyRows(reverified, reverify, pool);
  SpliceRows(old_n, reverified, reverify, verified, pool);
  uint64_t measure_calls = 0;
  for (uint64_t calls : verified.measure_calls) measure_calls += calls;
  CountPairs(universe, reverify, measure_calls);
  stats_.dead_list_entries = postings_.segments.size -
                             postings_.segments.live +
                             buckets_.segments.size - buckets_.segments.live;
}

void SparseSimilarityIndex::CountPairs(const Universe& universe,
                                       const std::vector<uint32_t>& reverify,
                                       uint64_t measure_calls) {
  // Every verification is one candidate pair; the comparable pairs (live,
  // cross-source) with a re-verified endpoint that were not candidates
  // are what blocking pruned. Each pair counts once, so a build's tallies
  // sum to the comparable pairs of the whole universe. The re-verified
  // rows come grouped by source: a live one pairs with the live
  // attributes of other sources, less the pairs of two re-verified rows,
  // which it would count twice.
  last_measure_calls_ = measure_calls;
  stats_.candidate_pairs = measure_calls;
  uint64_t touching = 0;
  uint64_t reverified_live = 0;
  uint64_t same_source = 0;  // pairs of re-verified rows of one source
  for (size_t k = 0; k < reverify.size();) {
    const uint32_t sid = facts_[reverify[k]].source;
    uint64_t live = 0;
    for (; k < reverify.size() && facts_[reverify[k]].source == sid; ++k) {
      live += facts_[reverify[k]].live;
    }
    const uint64_t source_live =
        universe.alive(sid) ? universe.source(sid).attribute_count() : 0;
    touching += live * (live_attrs_ - source_live);
    reverified_live += live;
    same_source += Pairs(live);
  }
  touching -= Pairs(reverified_live) - same_source;
  stats_.pruned_pairs = touching - stats_.candidate_pairs;
}

SparseSimilarityIndex::Verified SparseSimilarityIndex::VerifyRows(
    const Reverified& reverified, const std::vector<uint32_t>& reverify,
    ThreadPool& pool) const {
  // Worker t verifies rows reverify[t], reverify[t + T], ... into its own
  // flat buffer, and the rows are spliced in ascending order afterwards,
  // so the result is bit-identical at any thread count (each row's
  // computation is self-contained; per-worker tallies merge in fixed
  // order).
  const size_t workers = std::min<size_t>(
      pool.thread_count(), std::max<size_t>(1, reverify.size()));
  Verified verified;
  verified.found.resize(workers);
  verified.range.resize(reverify.size());
  verified.measure_calls.resize(workers, 0);
  pool.ParallelFor(workers, [&](size_t t) {
    IdSet seen;
    std::vector<uint32_t> cand;
    std::vector<RowEntry>& found = verified.found[t];
    for (size_t r = t; r < reverify.size(); r += workers) {
      const size_t begin = found.size();
      VerifyRow(reverify[r], reverified, seen, cand,
                verified.measure_calls[t], found);
      verified.range[r] = {begin, found.size()};
    }
  });
  return verified;
}

void SparseSimilarityIndex::SpliceRows(size_t old_n,
                                       const Reverified& reverified,
                                       const std::vector<uint32_t>& reverify,
                                       const Verified& verified,
                                       ThreadPool& pool) {
  // Every verified entry (i, j) is mirrored into row j, which gains it. A
  // clean row loses its entries toward re-verified rows; rows are
  // symmetric, so those are the re-verified rows' old entries.
  TouchedRows touched(n_, reverify);
  for (size_t r = 0; r < reverify.size(); ++r) {
    for (const RowEntry& e : verified.Entries(r)) ++touched[e.attr].gained;
    if (reverify[r] < old_n) {
      const Row& old = RowOf(reverify[r]);
      for (uint32_t k = 0; k < old.size; ++k) ++touched[old.attr[k]].lost;
    }
  }
  // The touched rows, ascending, and their new sizes.
  const std::vector<uint32_t> written = touched.Rows();
  std::vector<size_t> sizes(written.size());
  size_t live_entries = row_segments_.live;
  size_t touched_entries = 0;
  for (size_t k = 0, r = 0; k < written.size(); ++k) {
    const uint32_t i = written[k];
    const TouchedRows::Counts counts = touched.Get(i);
    const size_t old_size = i < old_n ? RowOf(i).size : 0;
    const bool is_reverified = r < reverify.size() && reverify[r] == i;
    sizes[k] = is_reverified ? verified.Entries(r++).size() + counts.gained
                             : old_size - counts.lost + counts.gained;
    live_entries += sizes[k] - old_size;
    touched_entries += sizes[k];
  }

  // The touched rows go into a new row segment; compacting, so do all the
  // others, copied from the segments they were in.
  SegmentWrite write(row_segments_, touched_entries, live_entries);
  std::shared_ptr<uint32_t[]> attr_segment = NewBuffer<uint32_t>(write.count());
  std::shared_ptr<float[]> sim_segment = NewBuffer<float>(write.count());
  uint32_t* const attr_base = attr_segment.get();
  float* const sim_base = sim_segment.get();
  RowTable rows = rows_;
  rows.Grow(n_);
  std::vector<uint32_t> clean;  // the rows written that are not re-verified
  {
    auto r = reverify.begin();
    write.Layout(
        written, sizes, n_, [&](size_t i) { return rows[i].size; },
        [&](size_t i, size_t at, size_t size, size_t) {
          rows.Mutable(i) = Row{attr_base + at, sim_base + at,
                                static_cast<uint32_t>(size)};
          while (r != reverify.end() && *r < i) ++r;
          if (r == reverify.end() || *r != i) {
            clean.push_back(static_cast<uint32_t>(i));
          }
        });
  }
  // Where row i starts in the new segment.
  auto offset = [&](size_t i) {
    return static_cast<size_t>(rows[i].attr - attr_base);
  };

  // A row's mirrors go to the front of its slot, ascending because the
  // re-verified rows are visited in ascending order; `gained` counts them
  // again as they land. Worker t places the mirrors of its share of the
  // written rows, a range of row ids, so the counts and the new segment's
  // pages are written by every worker.
  const size_t threads = pool.thread_count();
  pool.ParallelFor(threads, [&](size_t t) {
    const size_t first = t * written.size() / threads;
    const size_t last = (t + 1) * written.size() / threads;
    if (first == last) return;
    const uint32_t lo = written[first];
    const uint32_t hi = written[last - 1];
    for (size_t k = first; k < last; ++k) touched.At(written[k]).gained = 0;
    for (size_t r = 0; r < reverify.size(); ++r) {
      for (const RowEntry& e : verified.Entries(r)) {
        if (e.attr < lo || e.attr > hi) continue;
        const size_t k = offset(e.attr) + touched.At(e.attr).gained++;
        attr_base[k] = reverify[r];
        sim_base[k] = e.sim;
      }
    }
  });
  // Then each row merges its other `size` entries (partner(k), score(k))
  // in behind them, from the back: a re-verified row its verified
  // entries, a clean row its old entries toward clean rows (it has
  // `lost` others).
  auto splice = [&](size_t i, size_t size, size_t lost, auto partner,
                    auto score) {
    uint32_t* const attr = attr_base + offset(i);
    float* const sim = sim_base + offset(i);
    size_t mirrors = touched.Get(static_cast<uint32_t>(i)).gained;
    size_t w = rows[i].size;
    for (size_t k = size; k-- > 0;) {
      const uint32_t j = partner(k);
      if (lost > 0 && reverified.Contains(j)) {
        --lost;
        continue;
      }
      while (mirrors > 0 && attr[mirrors - 1] > j) {
        --w;
        --mirrors;
        attr[w] = attr[mirrors];
        sim[w] = sim[mirrors];
      }
      --w;
      attr[w] = j;
      sim[w] = score(k);
    }
    MUBE_CHECK(w == mirrors);
  };
  pool.ParallelFor(threads, [&](size_t t) {
    for (size_t r = t; r < reverify.size(); r += threads) {
      const std::span<const RowEntry> found = verified.Entries(r);
      splice(
          reverify[r], found.size(), 0,
          [&](size_t k) { return found[k].attr; },
          [&](size_t k) { return found[k].sim; });
    }
    for (size_t k = t; k < clean.size(); k += threads) {
      const Row& old = RowOf(clean[k]);
      splice(
          clean[k], old.size, touched.Get(clean[k]).lost,
          [&](size_t e) { return old.attr[e]; },
          [&](size_t e) { return old.sim[e]; });
    }
  });
  rows_ = std::move(rows);
  write.Commit({std::move(attr_segment), std::move(sim_segment)});
  stats_.stored_pairs = live_entries / 2;
  stats_.dead_entries = row_segments_.size - row_segments_.live;
}

}  // namespace mube
