#include "text/sparse_similarity.h"

#include <algorithm>
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
constexpr size_t kMaxGramDf = 256;
constexpr size_t kBandRows = 4;
constexpr size_t kMaxBandBucket = 128;
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

/// Cross-source pairs among attributes counted per source.
uint64_t ComparablePairs(const std::vector<uint64_t>& per_source) {
  uint64_t total = 0;
  uint64_t same = 0;
  for (uint64_t c : per_source) {
    total += c;
    same += c * (c - (c > 0 ? 1 : 0)) / 2;
  }
  return total * (total - (total > 0 ? 1 : 0)) / 2 - same;
}

}  // namespace

SparseSimilarityIndex::SparseSimilarityIndex(const Universe& universe,
                                             const SimilarityMeasure& measure,
                                             SparseIndexOptions options,
                                             unsigned threads)
    : options_(options) {
  static_assert(kBands >= 1 && kBandRows >= 1);
  MUBE_CHECK(options_.index_theta > 0.0);
  Rebuild(universe, measure, threads);
}

bool SparseSimilarityIndex::Segments::MustCompact(size_t written,
                                                  size_t live_after) const {
  const size_t dead = size + written - live_after;
  return static_cast<double>(dead) >
         kMaxDeadShare * static_cast<double>(live_after);
}

void SparseSimilarityIndex::Segments::Add(
    std::initializer_list<std::shared_ptr<const void>> added, size_t count,
    bool compact, size_t live_after) {
  if (compact) {
    buffers.clear();
    size = 0;
  }
  if (count > 0) buffers.insert(buffers.end(), added);
  size += count;
  live = live_after;
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
  if (fi.source == fj.source) return 0.0;
  const std::vector<char>& live = *source_live_;
  if (!live[fi.source] || !live[fj.source]) return 0.0;
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
  size_t bytes = source_live_->capacity() +
                 facts_.MemoryBytes() +
                 token_segments_.size * sizeof(uint64_t) +
                 rows_.MemoryBytes() +
                 row_segments_.size * (sizeof(uint32_t) + sizeof(float));
  for (const Csr* csr : {postings_.get(), buckets_.get()}) {
    bytes += csr->keys.capacity() * sizeof(uint64_t) +
             csr->offsets.capacity() * sizeof(uint32_t) +
             csr->attrs.capacity() * sizeof(uint32_t);
  }
  return bytes;
}

std::span<const uint32_t> SparseSimilarityIndex::Lookup(const Csr& csr,
                                                        uint64_t key) {
  const auto it = std::lower_bound(csr.keys.begin(), csr.keys.end(), key);
  if (it == csr.keys.end() || *it != key) return {};
  const size_t k = static_cast<size_t>(it - csr.keys.begin());
  return {csr.attrs.data() + csr.offsets[k],
          csr.attrs.data() + csr.offsets[k + 1]};
}

SparseSimilarityIndex::Csr SparseSimilarityIndex::PatchCsr(
    const Csr& old, const std::vector<KeyedAttr>& removed,
    const std::vector<KeyedAttr>& added, size_t cap,
    std::vector<char>& flipped) {
  size_t added_keys = 0;
  for (size_t k = 0; k < added.size(); ++k) {
    if (k == 0 || added[k].key != added[k - 1].key) ++added_keys;
  }
  Csr out;
  out.keys.reserve(old.keys.size() + added_keys);
  out.offsets.reserve(old.keys.size() + added_keys + 1);
  out.offsets.clear();
  out.attrs.reserve(old.attrs.size() - removed.size() + added.size());

  // Keys the delta does not touch are copied as runs.
  auto copy_keys = [&](size_t from, size_t to) {
    if (from == to) return;
    const uint32_t src = old.offsets[from];
    const uint32_t dst = static_cast<uint32_t>(out.attrs.size());
    out.keys.insert(out.keys.end(), old.keys.begin() + from,
                    old.keys.begin() + to);
    for (size_t k = from; k < to; ++k) {
      out.offsets.push_back(old.offsets[k] - src + dst);
    }
    out.attrs.insert(out.attrs.end(), old.attrs.begin() + src,
                     old.attrs.begin() + old.offsets[to]);
  };

  size_t next = 0;  // first old key not yet copied
  auto r = removed.begin();
  auto a = added.begin();
  std::vector<uint32_t> kept;
  while (r != removed.end() || a != added.end()) {
    const uint64_t key =
        (a == added.end() || (r != removed.end() && r->key < a->key))
            ? r->key
            : a->key;
    const size_t at = static_cast<size_t>(
        std::lower_bound(old.keys.begin() + next, old.keys.end(), key) -
        old.keys.begin());
    copy_keys(next, at);
    next = at;
    const uint32_t* prev = old.attrs.data();
    size_t prev_size = 0;
    if (at < old.keys.size() && old.keys[at] == key) {
      prev += old.offsets[at];
      prev_size = old.offsets[at + 1] - old.offsets[at];
      ++next;
    }
    auto r_end = r;
    while (r_end != removed.end() && r_end->key == key) ++r_end;
    auto a_end = a;
    while (a_end != added.end() && a_end->key == key) ++a_end;

    // The key's list: its old ids minus the removed ones, merged with the
    // added ones (all ascending; duplicates kept as a build keeps them).
    kept.clear();
    for (size_t p = 0; p < prev_size; ++p) {
      if (r != r_end && r->attr == prev[p]) {
        ++r;
      } else {
        kept.push_back(prev[p]);
      }
    }
    MUBE_CHECK(r == r_end);  // every removed entry was listed
    const size_t begin = out.attrs.size();
    auto k = kept.begin();
    for (; a != a_end; ++a) {
      while (k != kept.end() && *k <= a->attr) out.attrs.push_back(*k++);
      out.attrs.push_back(a->attr);
    }
    out.attrs.insert(out.attrs.end(), k, kept.end());
    const size_t size = out.attrs.size() - begin;
    if (size > 0) {
      out.keys.push_back(key);
      out.offsets.push_back(static_cast<uint32_t>(begin));
    }
    // A key that vanished needs no flag: every attribute it listed changed.
    if ((prev_size > cap) != (size > cap)) {
      for (size_t o = begin; o < out.attrs.size(); ++o) {
        flipped[out.attrs[o]] = 1;
      }
    }
  }
  copy_keys(next, old.keys.size());
  out.offsets.push_back(static_cast<uint32_t>(out.attrs.size()));
  return out;
}

void SparseSimilarityIndex::RefreshAttributes(const Universe& universe,
                                              const SimilarityMeasure& measure,
                                              size_t old_n,
                                              std::vector<char>& refresh) {
  FactsTable facts = facts_;
  FactsTable::Editor edit(facts, n_);
  if (old_n < n_) {
    // Appended attributes belong to the sources from old_n's on.
    for (uint32_t sid = universe.RefFromGlobalIndex(old_n).source_id;
         sid < universe.size(); ++sid) {
      for (uint32_t a = 0; a < universe.source(sid).attribute_count(); ++a) {
        const size_t i = universe.GlobalAttrIndex(AttributeRef(sid, a));
        if (i >= old_n) edit[i].source = sid;
      }
    }
  }
  // A source whose liveness flipped is refreshed like a dirty one.
  const std::vector<char>& old_live = *source_live_;
  auto live = std::make_shared<std::vector<char>>(universe.size());
  for (uint32_t sid = 0; sid < universe.size(); ++sid) {
    (*live)[sid] = universe.alive(sid) ? 1 : 0;
    if (sid >= old_live.size() || old_live[sid] == (*live)[sid]) continue;
    for (uint32_t a = 0; a < universe.source(sid).attribute_count(); ++a) {
      refresh[universe.GlobalAttrIndex(AttributeRef(sid, a))] = 1;
    }
  }
  source_live_ = std::move(live);

  // New band keys and tokens of the refreshed attributes, staged back to
  // back in ascending order. Tokens are only ever set for live attributes,
  // so a refreshed attribute's old ones are exactly its entries in the
  // postings and buckets.
  std::vector<uint32_t> refreshed;
  std::vector<uint64_t> staged;
  size_t live_words = token_segments_.live;
  std::vector<KeyedAttr> gram_removed, gram_added, band_removed, band_added;
  const HashFamily family(kBands * kBandRows, kSeed);
  std::vector<uint64_t> minvals(kBands * kBandRows);
  for (size_t i = 0; i < n_; ++i) {
    if (!refresh[i]) continue;
    const uint32_t id = static_cast<uint32_t>(i);
    refreshed.push_back(id);
    AttrFacts& f = edit[i];
    if (f.data != nullptr) {
      for (uint64_t gram : TokensOf(i)) gram_removed.push_back({gram, id});
      for (size_t b = 0; b < kBands; ++b) {
        band_removed.push_back({f.data[b], id});
      }
      live_words -= kBands + f.token_count;
    }
    f.data = nullptr;
    f.token_count = 0;
    if (!(*source_live_)[f.source]) continue;
    std::vector<uint64_t> tokens = measure.PrepareTokens(
        universe.attribute(universe.RefFromGlobalIndex(i)).normalized);
    if (tokens.empty()) continue;
    f.token_count = static_cast<uint32_t>(tokens.size());
    live_words += kBands + tokens.size();
    std::fill(minvals.begin(), minvals.end(), ~0ULL);
    for (uint64_t gram : tokens) {
      gram_added.push_back({gram, id});
      for (size_t k = 0; k < minvals.size(); ++k) {
        minvals[k] = std::min(minvals[k], family.Hash(k, gram));
      }
    }
    for (size_t b = 0; b < kBands; ++b) {
      // Salting with the band id keeps bands in disjoint key spaces, so
      // one bucket CSR can hold all bands without cross-band collisions.
      uint64_t h = Mix64(kSeed ^ (b + 1));
      for (size_t r = 0; r < kBandRows; ++r) {
        h = HashCombine(h, minvals[b * kBandRows + r]);
      }
      staged.push_back(h);
      band_added.push_back({h, id});
    }
    staged.insert(staged.end(), tokens.begin(), tokens.end());
  }

  // The staged words go into a new token segment; compacting, so do every
  // other live attribute's, copied from the segments they were in.
  const bool compact = token_segments_.MustCompact(staged.size(), live_words);
  const size_t count = compact ? live_words : staged.size();
  std::shared_ptr<uint64_t[]> segment = NewBuffer<uint64_t>(count);
  size_t at = 0;
  const uint64_t* from = staged.data();
  auto next = refreshed.begin();
  auto place = [&](size_t i) {
    AttrFacts& f = edit[i];
    const uint64_t* words = f.data;
    const size_t size = f.token_count == 0 ? 0 : kBands + f.token_count;
    if (next != refreshed.end() && *next == i) {
      ++next;
      words = from;
      from += size;
    }
    if (size == 0) return;
    std::copy(words, words + size, segment.get() + at);
    f.data = segment.get() + at;
    at += size;
  };
  if (compact) {
    for (size_t i = 0; i < n_; ++i) place(i);
  } else {
    for (uint32_t id : refreshed) place(id);
  }
  MUBE_CHECK(at == count);
  facts_ = std::move(facts);
  token_segments_.Add({std::move(segment)}, count, compact, live_words);

  for (std::vector<KeyedAttr>* pairs :
       {&gram_removed, &gram_added, &band_removed, &band_added}) {
    std::sort(pairs->begin(), pairs->end());
  }
  postings_ = std::make_shared<const Csr>(
      PatchCsr(*postings_, gram_removed, gram_added, kMaxGramDf, refresh));
  buckets_ = std::make_shared<const Csr>(PatchCsr(
      *buckets_, band_removed, band_added, kMaxBandBucket, refresh));
}

void SparseSimilarityIndex::GenerateCandidates(
    size_t i, const Skip& skip, std::vector<char>& seen,
    std::vector<uint32_t>& out) const {
  const FactsTable& facts = facts_;
  const uint32_t me = static_cast<uint32_t>(i);
  const uint32_t my_source = facts[i].source;
  // Postings are ascending, and every partner below the first clean
  // attribute is skipped, so the scan starts there (or at i itself).
  const uint32_t scan_from = std::min(me, skip.first_clean);
  // The attributes listed under `key`, unless more than `cap` are.
  auto scan = [&](const Csr& csr, uint64_t key, size_t cap) {
    const std::span<const uint32_t> list = Lookup(csr, key);
    if (list.size() > cap) return;
    for (auto p = std::lower_bound(list.begin(), list.end(), scan_from);
         p != list.end(); ++p) {
      const uint32_t j = *p;
      // A pair with both rows being re-verified is scored once, by the
      // smaller-indexed row; the other row gets it mirrored back.
      if (j <= me && (j == me || skip.mask[j])) continue;
      if (seen[j] || facts[j].source == my_source) continue;
      seen[j] = 1;
      out.push_back(j);
    }
  };
  for (uint64_t gram : TokensOf(i)) {
    scan(*postings_, gram, kMaxGramDf);  // stop-grams are LSH's job
  }
  const uint64_t* const band_keys = facts[i].data;
  for (size_t b = 0; band_keys != nullptr && b < kBands; ++b) {
    scan(*buckets_, band_keys[b], kMaxBandBucket);  // skip degenerate bands
  }
}

void SparseSimilarityIndex::VerifyRow(size_t i, const Skip& skip,
                                      std::vector<char>& seen,
                                      std::vector<uint32_t>& cand_scratch,
                                      uint64_t& measure_calls,
                                      std::vector<RowEntry>& out) const {
  if (facts_[i].data == nullptr) return;  // dead or token-less
  cand_scratch.clear();
  GenerateCandidates(i, skip, seen, cand_scratch);
  measure_calls += cand_scratch.size();
  const size_t begin = out.size();
  for (uint32_t j : cand_scratch) {
    seen[j] = 0;
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

  // Re-verified rows: appended attributes, dirty sources' attributes, and
  // (flagged by RefreshAttributes) flipped liveness and pruning caps.
  std::vector<char> recompute(n_, 0);
  for (size_t i = old_n; i < n_; ++i) recompute[i] = 1;
  for (uint32_t sid : dirty_sources) {
    const Source& s = universe.source(sid);
    for (uint32_t a = 0; a < s.attribute_count(); ++a) {
      recompute[universe.GlobalAttrIndex(AttributeRef(sid, a))] = 1;
    }
  }
  RefreshAttributes(universe, measure, old_n, recompute);

  std::vector<uint32_t> reverify;
  for (size_t i = 0; i < n_; ++i) {
    if (recompute[i]) reverify.push_back(static_cast<uint32_t>(i));
  }
  ThreadPool pool(ResolveThreadCount(threads));
  const Verified verified = VerifyRows(recompute, reverify, pool);
  SpliceRows(old_n, recompute, reverify, verified, pool);

  last_measure_calls_ = 0;
  for (uint64_t calls : verified.measure_calls) last_measure_calls_ += calls;
  // Every verification is one candidate pair; the comparable pairs (live,
  // cross-source) with a re-verified endpoint that were not candidates
  // are what blocking pruned. Each pair counts once, so a build's tallies
  // sum to the comparable pairs of the whole universe.
  stats_.candidate_pairs = last_measure_calls_;
  std::vector<uint64_t> live_attrs(universe.size(), 0);
  for (uint32_t sid = 0; sid < universe.size(); ++sid) {
    if (universe.alive(sid)) {
      live_attrs[sid] = universe.source(sid).attribute_count();
    }
  }
  const uint64_t all_pairs = ComparablePairs(live_attrs);
  for (uint32_t i : reverify) {
    if (live(i)) --live_attrs[facts_[i].source];
  }
  stats_.pruned_pairs = all_pairs - ComparablePairs(live_attrs) -
                        stats_.candidate_pairs;
}

SparseSimilarityIndex::Verified SparseSimilarityIndex::VerifyRows(
    const std::vector<char>& recompute, const std::vector<uint32_t>& reverify,
    ThreadPool& pool) const {
  const Skip skip{recompute, static_cast<uint32_t>(
                                std::find(recompute.begin(), recompute.end(),
                                          0) -
                                recompute.begin())};
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
    std::vector<char> seen(n_, 0);
    std::vector<uint32_t> cand;
    std::vector<RowEntry>& found = verified.found[t];
    for (size_t r = t; r < reverify.size(); r += workers) {
      const size_t begin = found.size();
      VerifyRow(reverify[r], skip, seen, cand, verified.measure_calls[t],
                found);
      verified.range[r] = {begin, found.size()};
    }
  });
  return verified;
}

void SparseSimilarityIndex::SpliceRows(size_t old_n,
                                       const std::vector<char>& recompute,
                                       const std::vector<uint32_t>& reverify,
                                       const Verified& verified,
                                       ThreadPool& pool) {
  // Every verified entry (i, j) is mirrored into row j, which gains it. A
  // clean row loses its entries toward re-verified rows; rows are
  // symmetric, so those are the re-verified rows' old entries.
  std::vector<uint32_t> gained(n_, 0);
  std::vector<uint32_t> lost(n_, 0);
  for (size_t r = 0; r < reverify.size(); ++r) {
    for (const RowEntry& e : verified.Entries(r)) ++gained[e.attr];
    if (reverify[r] < old_n) {
      const Row& old = RowOf(reverify[r]);
      for (uint32_t k = 0; k < old.size; ++k) ++lost[old.attr[k]];
    }
  }
  // The touched rows — re-verified, gaining or losing entries — and their
  // new sizes.
  std::vector<uint32_t> touched;
  std::vector<size_t> new_size;
  size_t live_entries = row_segments_.live;
  size_t touched_entries = 0;
  for (size_t i = 0, r = 0; i < n_; ++i) {
    if (!recompute[i] && gained[i] == 0 && lost[i] == 0) continue;
    const size_t old_size = i < old_n ? RowOf(i).size : 0;
    const size_t size = recompute[i] ? verified.Entries(r++).size() + gained[i]
                                     : old_size - lost[i] + gained[i];
    touched.push_back(static_cast<uint32_t>(i));
    new_size.push_back(size);
    live_entries += size - old_size;
    touched_entries += size;
  }

  // The touched rows go into a new row segment; compacting, so do all the
  // others, copied from the segments they were in.
  const bool compact =
      row_segments_.MustCompact(touched_entries, live_entries);
  std::vector<uint32_t> all;
  if (compact) {
    all.resize(n_);
    for (size_t i = 0; i < n_; ++i) all[i] = static_cast<uint32_t>(i);
  }
  const std::vector<uint32_t>& written = compact ? all : touched;
  const size_t count = compact ? live_entries : touched_entries;
  std::shared_ptr<uint32_t[]> attr_segment = NewBuffer<uint32_t>(count);
  std::shared_ptr<float[]> sim_segment = NewBuffer<float>(count);
  uint32_t* const attr_base = attr_segment.get();
  float* const sim_base = sim_segment.get();
  RowTable rows = rows_;
  {
    RowTable::Editor edit(rows, n_);
    size_t at = 0;
    auto t = touched.begin();
    for (uint32_t i : written) {
      uint32_t size = rows[i].size;
      if (t != touched.end() && *t == i) {
        size = static_cast<uint32_t>(
            new_size[static_cast<size_t>(t - touched.begin())]);
        ++t;
      }
      edit[i] = Row{attr_base + at, sim_base + at, size};
      at += size;
    }
    MUBE_CHECK(at == count);
  }
  // Where row i starts in the new segment.
  auto offset = [&](size_t i) {
    return static_cast<size_t>(rows[i].attr - attr_base);
  };

  // A row's mirrors go to the front of its slot, ascending because the
  // re-verified rows are visited in ascending order; `lost` is reused as
  // the fill count.
  std::fill(lost.begin(), lost.end(), 0);
  for (size_t r = 0; r < reverify.size(); ++r) {
    for (const RowEntry& e : verified.Entries(r)) {
      const size_t k = offset(e.attr) + lost[e.attr]++;
      attr_base[k] = reverify[r];
      sim_base[k] = e.sim;
    }
  }
  // Then each row merges its other `size` entries (partner(k), score(k))
  // in behind them, from the back: a re-verified row its verified
  // entries, any other written row its old entries toward clean rows.
  auto splice = [&](size_t i, size_t size, auto partner, auto score) {
    uint32_t* const attr = attr_base + offset(i);
    float* const sim = sim_base + offset(i);
    size_t mirrors = gained[i];
    size_t w = rows[i].size;
    for (size_t k = size; k-- > 0;) {
      const uint32_t j = partner(k);
      if (recompute[j] && !recompute[i]) continue;
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
  const size_t threads = pool.thread_count();
  pool.ParallelFor(threads, [&](size_t t) {
    for (size_t r = t; r < reverify.size(); r += threads) {
      const std::span<const RowEntry> found = verified.Entries(r);
      splice(
          reverify[r], found.size(), [&](size_t k) { return found[k].attr; },
          [&](size_t k) { return found[k].sim; });
    }
    for (size_t k = t; k < written.size(); k += threads) {
      if (recompute[written[k]]) continue;
      const Row& old = RowOf(written[k]);
      splice(
          written[k], old.size, [&](size_t e) { return old.attr[e]; },
          [&](size_t e) { return old.sim[e]; });
    }
  });
  rows_ = std::move(rows);
  row_segments_.Add({std::move(attr_segment), std::move(sim_segment)}, count,
                    compact, live_entries);
  stats_.stored_pairs = live_entries / 2;
  stats_.dead_entries = row_segments_.size - row_segments_.live;
}

}  // namespace mube
