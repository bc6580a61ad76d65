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
/// pairs). Each attribute gets kBands bands of kBandRows minhash values
/// from a HashFamily seeded with kSeed; a pair with Jaccard s collides in
/// some band with probability 1 − (1 − s^kBandRows)^kBands. Buckets larger
/// than kMaxBandBucket are skipped (degenerate bands).
constexpr size_t kMaxGramDf = 256;
constexpr size_t kBands = 8;
constexpr size_t kBandRows = 4;
constexpr size_t kMaxBandBucket = 128;
constexpr uint64_t kSeed = 0x6d756265ULL;  // "mube"

/// First position in the ascending range [first, last) not less than
/// `value`, found by probing first+1, first+3, first+7, ... and then
/// binary-searching the last gap: O(log distance), so a merge of two
/// ascending lists built on it costs O(a + b) when they interleave and
/// O(min · log max) when one is much shorter.
template <typename It>
It Gallop(It first, It last, uint32_t value) {
  ptrdiff_t step = 1;
  while (last - first > step && first[step] < value) {
    first += step;
    step *= 2;
  }
  return std::lower_bound(first, last - first > step ? first + step + 1 : last,
                          value);
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

double SparseSimilarityIndex::ExactPair(size_t i, size_t j) const {
  if (i > j) std::swap(i, j);  // canonical order: one float per pair
  const std::vector<uint64_t>& a = tokens_[i];
  const std::vector<uint64_t>& b = tokens_[j];
  const double sim =
      use_counts_ ? measure_->SimilarityFromCounts(
                        SortedIntersectionSize(a, b), a.size(), b.size())
                  : measure_->SimilarityFromTokens(a, b);
  // The same float promotion a dense cell goes through, so stored scores,
  // fallback scores, and SimilarityMatrix entries are bit-identical.
  return static_cast<double>(static_cast<float>(sim));
}

double SparseSimilarityIndex::At(size_t i, size_t j) const {
  if (i == j) return 0.0;
  if (source_of_[i] == source_of_[j]) return 0.0;
  if (!live_[i] || !live_[j]) return 0.0;
  const uint32_t target = static_cast<uint32_t>(j);
  const auto begin = nbr_attr_.begin() + row_offsets_[i];
  const auto end = nbr_attr_.begin() + row_offsets_[i + 1];
  const auto it = std::lower_bound(begin, end, target);
  if (it != end && *it == target) {
    return nbr_sim_[static_cast<size_t>(it - nbr_attr_.begin())];
  }
  return ExactPair(i, j);
}

void SparseSimilarityIndex::ForEachNeighborAtLeast(
    size_t i, double theta, const NeighborFn& fn) const {
  const size_t begin = row_offsets_[i];
  const size_t end = row_offsets_[i + 1];
  for (size_t k = begin; k < end; ++k) {
    const float sim = nbr_sim_[k];
    if (static_cast<double>(sim) >= theta) fn(nbr_attr_[k], sim);
  }
}

void SparseSimilarityIndex::SubsetEdgesAtLeast(
    const std::vector<uint32_t>& attrs, double theta,
    std::vector<SubsetEdge>& edges) const {
  const auto subset_begin = attrs.begin();
  const auto subset_end = attrs.end();
  const auto nbr_begin = nbr_attr_.begin();
  for (uint32_t u = 0; u < attrs.size(); ++u) {
    auto a = subset_begin + u + 1;
    const auto r_end =
        nbr_begin + static_cast<ptrdiff_t>(row_offsets_[attrs[u] + 1]);
    auto r = std::upper_bound(
        nbr_begin + static_cast<ptrdiff_t>(row_offsets_[attrs[u]]), r_end,
        attrs[u]);
    while (a != subset_end && r != r_end) {
      if (*r < *a) {
        r = Gallop(r + 1, r_end, *a);
      } else if (*a < *r) {
        a = Gallop(a + 1, subset_end, *r);
      } else {
        const float sim = nbr_sim_[static_cast<size_t>(r - nbr_begin)];
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
  size_t bytes = gram_keys_.capacity() * sizeof(uint64_t) +
                 gram_offsets_.capacity() * sizeof(uint32_t) +
                 gram_attrs_.capacity() * sizeof(uint32_t) +
                 band_keys_.capacity() * sizeof(uint64_t) +
                 bucket_keys_.capacity() * sizeof(uint64_t) +
                 bucket_offsets_.capacity() * sizeof(uint32_t) +
                 bucket_attrs_.capacity() * sizeof(uint32_t) +
                 row_offsets_.capacity() * sizeof(size_t) +
                 nbr_attr_.capacity() * sizeof(uint32_t) +
                 nbr_sim_.capacity() * sizeof(float) +
                 source_of_.capacity() * sizeof(uint32_t) +
                 live_.capacity() * sizeof(char);
  bytes += tokens_.capacity() * sizeof(std::vector<uint64_t>);
  for (const std::vector<uint64_t>& t : tokens_) {
    bytes += t.capacity() * sizeof(uint64_t);
  }
  return bytes;
}

void SparseSimilarityIndex::RefreshAttributes(
    const Universe& universe, const SimilarityMeasure& measure,
    const std::vector<char>& refresh) {
  // Source ids and liveness are re-resolved for every attribute — cheap,
  // and a retired source must be reflected everywhere even though only its
  // own rows are re-verified.
  for (size_t i = 0; i < n_; ++i) {
    const AttributeRef ref = universe.RefFromGlobalIndex(i);
    source_of_[i] = ref.source_id;
    live_[i] = universe.alive(ref.source_id) ? 1 : 0;
  }

  const HashFamily family(kBands * kBandRows, kSeed);
  std::vector<uint64_t> minvals(kBands * kBandRows);
  for (size_t i = 0; i < n_; ++i) {
    if (!refresh[i]) continue;
    if (live_[i]) {
      tokens_[i] =
          measure.PrepareTokens(universe.attribute(universe.RefFromGlobalIndex(i)).normalized);
    } else {
      tokens_[i].clear();
      tokens_[i].shrink_to_fit();
    }
    uint64_t* keys = band_keys_.data() + i * kBands;
    if (tokens_[i].empty()) {
      std::fill(keys, keys + kBands, kNoBandKey);
      continue;
    }
    std::fill(minvals.begin(), minvals.end(), ~0ULL);
    for (uint64_t gram : tokens_[i]) {
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
      keys[b] = (h == kNoBandKey) ? h - 1 : h;
    }
  }

  BuildPostings();
  BuildBuckets();
}

void SparseSimilarityIndex::BuildPostings() {
  std::vector<std::pair<uint64_t, uint32_t>> pairs;
  size_t total = 0;
  for (size_t i = 0; i < n_; ++i) {
    if (live_[i]) total += tokens_[i].size();
  }
  pairs.reserve(total);
  for (size_t i = 0; i < n_; ++i) {
    if (!live_[i]) continue;
    for (uint64_t gram : tokens_[i]) {
      pairs.emplace_back(gram, static_cast<uint32_t>(i));
    }
  }
  std::sort(pairs.begin(), pairs.end());

  gram_keys_.clear();
  gram_offsets_.clear();
  gram_attrs_.clear();
  gram_attrs_.reserve(pairs.size());
  for (size_t k = 0; k < pairs.size(); ++k) {
    if (k == 0 || pairs[k].first != pairs[k - 1].first) {
      gram_keys_.push_back(pairs[k].first);
      gram_offsets_.push_back(static_cast<uint32_t>(k));
    }
    gram_attrs_.push_back(pairs[k].second);
  }
  gram_offsets_.push_back(static_cast<uint32_t>(pairs.size()));
}

void SparseSimilarityIndex::BuildBuckets() {
  std::vector<std::pair<uint64_t, uint32_t>> pairs;
  pairs.reserve(n_ * kBands / 2);
  for (size_t i = 0; i < n_; ++i) {
    if (!live_[i]) continue;
    for (size_t b = 0; b < kBands; ++b) {
      const uint64_t key = band_keys_[i * kBands + b];
      if (key == kNoBandKey) continue;
      pairs.emplace_back(key, static_cast<uint32_t>(i));
    }
  }
  std::sort(pairs.begin(), pairs.end());

  bucket_keys_.clear();
  bucket_offsets_.clear();
  bucket_attrs_.clear();
  bucket_attrs_.reserve(pairs.size());
  for (size_t k = 0; k < pairs.size(); ++k) {
    if (k == 0 || pairs[k].first != pairs[k - 1].first) {
      bucket_keys_.push_back(pairs[k].first);
      bucket_offsets_.push_back(static_cast<uint32_t>(k));
    }
    bucket_attrs_.push_back(pairs[k].second);
  }
  bucket_offsets_.push_back(static_cast<uint32_t>(pairs.size()));
}

void SparseSimilarityIndex::GenerateCandidates(
    size_t i, const Skip& skip, std::vector<uint32_t>& stamps, uint32_t stamp,
    std::vector<uint32_t>& out) const {
  const uint32_t me = static_cast<uint32_t>(i);
  const uint32_t my_source = source_of_[i];
  // Postings are ascending, and every partner below the first clean
  // attribute is skipped, so the scan starts there (or at i itself).
  const uint32_t scan_from = std::min(me, skip.first_clean);
  auto scan = [&](const uint32_t* begin, const uint32_t* end) {
    for (const uint32_t* p = std::lower_bound(begin, end, scan_from); p != end;
         ++p) {
      const uint32_t j = *p;
      // A pair with both rows being re-verified is scored once, by the
      // smaller-indexed row; the other row gets it mirrored back.
      if (j <= me && (j == me || skip.mask[j])) continue;
      if (stamps[j] == stamp) continue;
      stamps[j] = stamp;
      if (source_of_[j] == my_source) continue;
      out.push_back(j);
    }
  };

  for (uint64_t gram : tokens_[i]) {
    const auto it =
        std::lower_bound(gram_keys_.begin(), gram_keys_.end(), gram);
    if (it == gram_keys_.end() || *it != gram) continue;
    const size_t k = static_cast<size_t>(it - gram_keys_.begin());
    const uint32_t off = gram_offsets_[k];
    const uint32_t df = gram_offsets_[k + 1] - off;
    if (df > kMaxGramDf) continue;  // stop-gram: LSH's job
    scan(gram_attrs_.data() + off, gram_attrs_.data() + off + df);
  }

  for (size_t b = 0; b < kBands; ++b) {
    const uint64_t key = band_keys_[i * kBands + b];
    if (key == kNoBandKey) continue;
    const auto it =
        std::lower_bound(bucket_keys_.begin(), bucket_keys_.end(), key);
    if (it == bucket_keys_.end() || *it != key) continue;
    const size_t k = static_cast<size_t>(it - bucket_keys_.begin());
    const uint32_t off = bucket_offsets_[k];
    const uint32_t size = bucket_offsets_[k + 1] - off;
    if (size > kMaxBandBucket) continue;  // degenerate band
    scan(bucket_attrs_.data() + off, bucket_attrs_.data() + off + size);
  }
}

std::vector<SparseSimilarityIndex::RowEntry> SparseSimilarityIndex::VerifyRow(
    size_t i, const Skip& skip, std::vector<uint32_t>& stamps,
    uint32_t& stamp_counter, std::vector<uint32_t>& cand_scratch,
    uint64_t& measure_calls) const {
  std::vector<RowEntry> out;
  if (!live_[i] || tokens_[i].empty()) return out;
  cand_scratch.clear();
  GenerateCandidates(i, skip, stamps, ++stamp_counter, cand_scratch);
  measure_calls += cand_scratch.size();
  for (uint32_t j : cand_scratch) {
    const double sim = ExactPair(i, j);
    const float stored = static_cast<float>(sim);
    if (static_cast<double>(stored) >= options_.index_theta) {
      out.push_back(RowEntry{j, stored});
    }
  }
  std::sort(out.begin(), out.end(),
            [](const RowEntry& a, const RowEntry& b) {
              return a.attr < b.attr;
            });
  return out;
}

uint64_t SparseSimilarityIndex::ComparablePairs(
    const std::vector<char>& exclude) const {
  std::vector<uint32_t> live_per_source;
  uint64_t live_total = 0;
  for (size_t i = 0; i < n_; ++i) {
    if (!live_[i] || exclude[i]) continue;
    if (source_of_[i] >= live_per_source.size()) {
      live_per_source.resize(source_of_[i] + 1, 0);
    }
    ++live_per_source[source_of_[i]];
    ++live_total;
  }
  uint64_t same = 0;
  for (uint64_t c : live_per_source) same += c * (c - (c > 0 ? 1 : 0)) / 2;
  return live_total * (live_total - (live_total > 0 ? 1 : 0)) / 2 - same;
}

void SparseSimilarityIndex::AssembleRows(
    std::vector<std::vector<RowEntry>>& rows,
    const std::vector<size_t>& mirror_offsets,
    const std::vector<RowEntry>& mirrors) {
  size_t total = mirrors.size();
  for (const std::vector<RowEntry>& row : rows) total += row.size();
  row_offsets_.assign(n_ + 1, 0);
  nbr_attr_.clear();
  nbr_sim_.clear();
  nbr_attr_.reserve(total);
  nbr_sim_.reserve(total);
  for (size_t i = 0; i < n_; ++i) {
    row_offsets_[i] = nbr_attr_.size();
    // Both runs are ascending and disjoint: merge them.
    const RowEntry* a = rows[i].data();
    const RowEntry* const a_end = a + rows[i].size();
    const RowEntry* b = mirrors.data() + mirror_offsets[i];
    const RowEntry* const b_end = mirrors.data() + mirror_offsets[i + 1];
    while (a != a_end || b != b_end) {
      const RowEntry& e =
          (b == b_end || (a != a_end && a->attr < b->attr)) ? *a++ : *b++;
      nbr_attr_.push_back(e.attr);
      nbr_sim_.push_back(e.sim);
    }
    std::vector<RowEntry>().swap(rows[i]);
  }
  row_offsets_[n_] = total;
  stats_.stored_pairs = total / 2;
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

  const size_t old_n = n_;
  n_ = universe.total_attribute_count();

  // Snapshot the old pruning state before the structures are rebuilt: a
  // gram's df or a bucket's size crossing its cap flips candidate coverage
  // for *clean* pairs, whose rows must then be re-verified too.
  const std::vector<uint64_t> old_gram_keys = std::move(gram_keys_);
  std::vector<uint32_t> old_gram_df(old_gram_keys.size());
  for (size_t k = 0; k < old_gram_keys.size(); ++k) {
    old_gram_df[k] = gram_offsets_[k + 1] - gram_offsets_[k];
  }
  const std::vector<uint64_t> old_bucket_keys = std::move(bucket_keys_);
  std::vector<uint32_t> old_bucket_size(old_bucket_keys.size());
  for (size_t k = 0; k < old_bucket_keys.size(); ++k) {
    old_bucket_size[k] = bucket_offsets_[k + 1] - bucket_offsets_[k];
  }

  source_of_.resize(n_, 0);
  live_.resize(n_, 0);
  tokens_.resize(n_);
  band_keys_.resize(n_ * kBands, kNoBandKey);

  std::vector<char> dirty(n_, 0);
  for (size_t i = old_n; i < n_; ++i) dirty[i] = 1;  // appended attributes
  for (uint32_t sid : dirty_sources) {
    const Source& s = universe.source(sid);
    for (uint32_t a = 0; a < s.attribute_count(); ++a) {
      dirty[universe.GlobalAttrIndex(AttributeRef(sid, a))] = 1;
    }
  }
  RefreshAttributes(universe, measure, dirty);

  // Coverage flips. Grams/buckets that exist only in the old structures
  // need no scan: every attribute that held them changed (clean
  // attributes keep their grams and band keys), so those rows are dirty
  // already.
  std::vector<char> recompute = std::move(dirty);
  auto old_count = [](const std::vector<uint64_t>& keys,
                      const std::vector<uint32_t>& counts, uint64_t key) {
    const auto it = std::lower_bound(keys.begin(), keys.end(), key);
    if (it == keys.end() || *it != key) return uint32_t{0};
    return counts[static_cast<size_t>(it - keys.begin())];
  };
  for (size_t k = 0; k < gram_keys_.size(); ++k) {
    const uint32_t new_df = gram_offsets_[k + 1] - gram_offsets_[k];
    const uint32_t prev_df =
        old_count(old_gram_keys, old_gram_df, gram_keys_[k]);
    if ((prev_df > kMaxGramDf) != (new_df > kMaxGramDf)) {
      for (uint32_t o = gram_offsets_[k]; o < gram_offsets_[k + 1]; ++o) {
        recompute[gram_attrs_[o]] = 1;
      }
    }
  }
  for (size_t k = 0; k < bucket_keys_.size(); ++k) {
    const uint32_t new_size = bucket_offsets_[k + 1] - bucket_offsets_[k];
    const uint32_t prev_size =
        old_count(old_bucket_keys, old_bucket_size, bucket_keys_[k]);
    if ((prev_size > kMaxBandBucket) !=
        (new_size > kMaxBandBucket)) {
      for (uint32_t o = bucket_offsets_[k]; o < bucket_offsets_[k + 1]; ++o) {
        recompute[bucket_attrs_[o]] = 1;
      }
    }
  }

  std::vector<size_t> recompute_rows;
  for (size_t i = 0; i < n_; ++i) {
    if (recompute[i]) recompute_rows.push_back(i);
  }

  threads = ResolveThreadCount(threads);
  threads = std::min<unsigned>(
      threads,
      static_cast<unsigned>(std::max<size_t>(1, recompute_rows.size())));

  const Skip skip{recompute, static_cast<uint32_t>(
                                std::find(recompute.begin(), recompute.end(),
                                          0) -
                                recompute.begin())};
  // Worker t verifies recomputed rows t, t+T, ... into disjoint slots;
  // per-worker tallies merge in fixed order afterwards, so the result is
  // bit-identical at any thread count (each row's computation is
  // self-contained).
  std::vector<std::vector<RowEntry>> rows(n_);
  std::vector<uint64_t> worker_calls(threads, 0);
  {
    ThreadPool pool(threads);
    pool.ParallelFor(threads, [&](size_t t) {
      std::vector<uint32_t> stamps(n_, 0);
      uint32_t stamp_counter = 0;
      std::vector<uint32_t> cand;
      for (size_t r = t; r < recompute_rows.size(); r += threads) {
        const size_t i = recompute_rows[r];
        rows[i] = VerifyRow(i, skip, stamps, stamp_counter, cand,
                            worker_calls[t]);
      }
    });
  }

  // Clean rows keep their entries toward other clean attributes; entries
  // toward re-verified attributes are replaced by mirrors below.
  for (size_t i = 0; i < old_n; ++i) {
    if (recompute[i]) continue;
    const size_t begin = row_offsets_[i];
    const size_t end = row_offsets_[i + 1];
    rows[i].reserve(end - begin);
    for (size_t k = begin; k < end; ++k) {
      if (!recompute[nbr_attr_[k]]) {
        rows[i].push_back(RowEntry{nbr_attr_[k], nbr_sim_[k]});
      }
    }
  }

  // Mirror the re-verified entries into their partners' rows: clean
  // partners gain their edge toward the recomputed attribute, and a
  // both-recomputed pair (scored by its smaller row) is restored in the
  // larger one. The mirrors go into one flat CSR sized up front, so no row
  // regrows; recomputed rows are visited in ascending order, so each row's
  // mirrors arrive ascending.
  std::vector<size_t> mirror_offsets(n_ + 1, 0);
  for (size_t i : recompute_rows) {
    for (const RowEntry& e : rows[i]) ++mirror_offsets[e.attr + 1];
  }
  for (size_t i = 0; i < n_; ++i) mirror_offsets[i + 1] += mirror_offsets[i];
  std::vector<RowEntry> mirrors(mirror_offsets[n_]);
  {
    std::vector<size_t> fill(mirror_offsets.begin(), mirror_offsets.end() - 1);
    for (size_t i : recompute_rows) {
      for (const RowEntry& e : rows[i]) {
        mirrors[fill[e.attr]++] = RowEntry{static_cast<uint32_t>(i), e.sim};
      }
    }
  }
  AssembleRows(rows, mirror_offsets, mirrors);

  last_measure_calls_ = 0;
  for (uint64_t calls : worker_calls) last_measure_calls_ += calls;
  // Every verification is one candidate pair; the comparable pairs with a
  // re-verified endpoint that were not candidates are what blocking
  // pruned. Each pair counts once, so a build's tallies sum to the
  // comparable pairs of the whole universe.
  stats_.candidate_pairs = last_measure_calls_;
  stats_.pruned_pairs = ComparablePairs(std::vector<char>(n_, 0)) -
                        ComparablePairs(recompute) - stats_.candidate_pairs;
}

}  // namespace mube
