#ifndef MUBE_TEXT_SPARSE_SIMILARITY_H_
#define MUBE_TEXT_SPARSE_SIMILARITY_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "text/similarity.h"
#include "text/similarity_source.h"

/// \file sparse_similarity.h
/// The sparse, blocked implementation of SimilaritySource — the structure
/// that makes 10⁵–10⁶-source universes feasible. The dense SimilarityMatrix
/// evaluates every cross-source pair (O(|A|²) measure calls and floats); at
/// 100k sources that is 10¹¹+ pairs and does not exist. This index inverts
/// the problem: almost all pairs have similarity ≈ 0 under a 3-gram set
/// measure, and a pair can only reach the matcher threshold θ if the two
/// names share grams. So:
///
///   1. **3-gram inverted index.** Every attribute's prepared gram codes go
///      into a postings list (gram → sorted attribute ids). Two attributes
///      are *candidates* if they co-occur in at least one postings list
///      whose document frequency is ≤ 256. For any Jaccard/Dice
///      threshold θ > 0, a pair at or above θ must share ≥ 1 gram, so this
///      blocking is lossless except where df-capping prunes stop-grams
///      ("ame", "ion", ...) whose postings would be quadratic to scan.
///   2. **Minhash-LSH banding.** Each attribute gets b × r minhash values
///      (b = 8 bands of r = 4 rows, from a fixed seed); each band of r
///      values hashes to a bucket key. Attributes sharing a bucket (size
///      ≤ 128) are also candidates. A pair with true Jaccard s collides in
///      ≥ 1 band with probability 1 − (1 − s^r)^b — at b=8, r=4 a pair
///      at s = 0.75 is caught with p ≈ 0.952 by LSH *alone*; the union
///      with the gram index (which only misses a pair if every shared gram
///      is df-capped) drives measured recall ≥ 0.999 at θ = 0.75.
///   3. **Exact verification.** Candidates are scored with the real
///      measure via the same SimilarityFromCounts / sorted-intersection
///      kernels the dense matrix uses, and stored iff the similarity —
///      promoted through float exactly like a dense cell — is ≥
///      index_theta. Stored scores are therefore bit-identical to the
///      dense matrix entry for the same pair.
///
/// Stored rows are CSR (attribute → sorted neighbor ids + float scores).
/// At(i, j) for an *unstored* pair falls back to an on-demand exact
/// computation from the retained token sets, so point lookups are exact for
/// every pair at any threshold — approximation only exists in
/// ForEachNeighborAtLeast enumeration (bounded by the recall bar in
/// bench/universe_1e5) and never in returned scores.
///
/// Churn maintenance (ApplyChurn) re-verifies only rows whose coverage a
/// fresh rebuild could change — attributes of dirty sources, plus
/// attributes whose gram df or LSH bucket crossed a pruning cap — and
/// splices the result into the untouched rows, bit-identical to Rebuild()
/// on the mutated universe with measure calls proportional to the delta.
/// A build is the same splice from the empty index, where every attribute
/// is new and every row is verified: rows are built in one place.

namespace mube {

class Universe;

/// \brief Settings of SparseSimilarityIndex: only the storage threshold.
/// The blocking geometry (gram df cap, LSH bands and rows, bucket cap,
/// seed) is fixed in sparse_similarity.cc, sized for attribute-name 3-gram
/// corpora at 10⁴–10⁶ attributes.
struct SparseIndexOptions {
  /// Storage threshold θ_index: a verified pair is stored iff its
  /// float-promoted similarity is ≥ index_theta. This is the index's
  /// neighbor_floor(); it must be ≤ the smallest matcher θ the index will
  /// serve. Lower values store more pairs (denser rows), higher values
  /// risk rejecting tenant thresholds.
  double index_theta = 0.5;
};

/// \brief Blocking-effectiveness observability, refreshed by every
/// constructor / Rebuild / ApplyChurn (the serving metrics pump reads it).
struct SparseIndexStats {
  /// Unique candidate pairs generated and exactly verified by the last
  /// index operation (== its measure calls).
  uint64_t candidate_pairs = 0;
  /// Comparable pairs (live, cross-source) with a re-verified endpoint
  /// that the last operation skipped without scoring — blocking's savings
  /// over dense. Each pair counts once, so candidate_pairs + pruned_pairs
  /// is the comparable pairs with a re-verified endpoint: every comparable
  /// pair after a build.
  uint64_t pruned_pairs = 0;
  /// Pairs currently stored (each counted once, not per direction).
  uint64_t stored_pairs = 0;
};

/// \brief Sparse candidate-blocked similarity index over a universe's
/// global attribute indexes.
///
/// Requires a measure with SupportsPreparedTokens() (the engine's
/// selection rule guarantees this; see MubeConfig::similarity_index).
/// The measure reference passed to the constructor / Rebuild / ApplyChurn
/// is retained for At()'s exact fallback and must outlive the index and
/// every CloneSource() copy of it. Mube holds its measure in a shared_ptr
/// that its forks share, so a fork's clone never outlives the measure.
///
/// Thread compatibility: immutable after build, like the dense matrix —
/// every const method (including the At() fallback, which is pure) is safe
/// from any number of threads once a mutator returns.
class SparseSimilarityIndex : public SimilaritySource {
 public:
  SparseSimilarityIndex(const Universe& universe,
                        const SimilarityMeasure& measure,
                        SparseIndexOptions options = {},
                        unsigned threads = 1);

  /// Resets to the empty index and applies churn with every attribute
  /// new.
  void Rebuild(const Universe& universe, const SimilarityMeasure& measure,
               unsigned threads = 1) override;

  /// Bit-identical to Rebuild() on the mutated universe, at measure calls
  /// proportional to the churn delta (rows of dirty sources, plus rows
  /// whose gram-df / bucket-size pruning decisions flipped — those flips
  /// are themselves caused by the delta).
  void ApplyChurn(const Universe& universe, const SimilarityMeasure& measure,
                  const std::vector<uint32_t>& dirty_sources,
                  unsigned threads = 1) override;

  /// Exact for every pair: stored pairs return the stored float; unstored
  /// pairs are recomputed on demand from the retained token sets through
  /// the same float promotion as a dense cell. Same-source, retired, and
  /// diagonal pairs return 0. The fallback is pure (no memoization, not
  /// counted in last_measure_calls) and thread-safe.
  double At(size_t i, size_t j) const override;

  size_t attribute_count() const override { return n_; }

  /// Walks row i's stored neighbors (ascending id). Complete for theta ≥
  /// neighbor_floor() up to candidate recall (the bench-enforced ≥ 0.999).
  void ForEachNeighborAtLeast(size_t i, double theta,
                              const NeighborFn& fn) const override;

  /// Rows are symmetric, so each member's pairs with the members after it
  /// lie in the part of its row above it: that part is intersected with
  /// the rest of the subset (both ascending).
  void SubsetEdgesAtLeast(const std::vector<uint32_t>& attrs, double theta,
                          std::vector<SubsetEdge>& edges) const override;

  double neighbor_floor() const override { return options_.index_theta; }

  std::unique_ptr<SimilaritySource> CloneSource() const override {
    return std::make_unique<SparseSimilarityIndex>(*this);
  }

  size_t MemoryBytes() const override;

  size_t last_measure_calls() const override { return last_measure_calls_; }
  uint64_t last_candidate_pairs() const override {
    return stats_.candidate_pairs;
  }
  uint64_t last_pruned_pairs() const override { return stats_.pruned_pairs; }

  const SparseIndexStats& stats() const { return stats_; }
  const SparseIndexOptions& options() const { return options_; }

 private:
  struct RowEntry {
    uint32_t attr;
    float sim;
  };

  /// The empty index, which Rebuild splices every attribute into.
  explicit SparseSimilarityIndex(SparseIndexOptions options)
      : options_(options) {}

  /// Canonical-order exact score of (i, j) promoted through float — the
  /// one definition of "the similarity" used by verification, storage, and
  /// the At() fallback, so all three agree bitwise.
  double ExactPair(size_t i, size_t j) const;

  /// Re-derives per-attribute facts (source, liveness, tokens, minhash
  /// band keys) for attributes flagged in `refresh`; then rebuilds the
  /// gram postings and LSH bucket CSRs from scratch (hash/sort work only —
  /// no measure calls).
  void RefreshAttributes(const Universe& universe,
                         const SimilarityMeasure& measure,
                         const std::vector<char>& refresh);
  void BuildPostings();
  void BuildBuckets();

  /// The rows being re-verified: mask[j] != 0 for each, and first_clean
  /// is the smallest j with mask[j] == 0 (n_ if none).
  struct Skip {
    const std::vector<char>& mask;
    uint32_t first_clean;
  };

  /// Appends every candidate partner of `i` to `out` (deduplicated via the
  /// caller's stamp array, same-source/dead/empty filtered). Partners
  /// j < i whose row is re-verified too are left out: that row scores the
  /// pair.
  void GenerateCandidates(size_t i, const Skip& skip,
                          std::vector<uint32_t>& stamps, uint32_t stamp,
                          std::vector<uint32_t>& out) const;

  /// Verifies row i's candidates (see GenerateCandidates for `skip`) and
  /// returns its stored entries, sorted by partner. Adds one to
  /// `measure_calls` per candidate scored.
  std::vector<RowEntry> VerifyRow(size_t i, const Skip& skip,
                                  std::vector<uint32_t>& stamps,
                                  uint32_t& stamp_counter,
                                  std::vector<uint32_t>& cand_scratch,
                                  uint64_t& measure_calls) const;

  /// Comparable pairs a dense build would score among the live attributes
  /// with exclude[i] unset: live cross-source pairs, each once.
  uint64_t ComparablePairs(const std::vector<char>& exclude) const;

  /// Replaces the CSR rows: row i is the merge of rows[i] and its slice
  /// of `mirrors` (both ascending). Releases each rows[i] once copied.
  /// Recomputes stats_.stored_pairs.
  void AssembleRows(std::vector<std::vector<RowEntry>>& rows,
                    const std::vector<size_t>& mirror_offsets,
                    const std::vector<RowEntry>& mirrors);

  SparseIndexOptions options_;
  const SimilarityMeasure* measure_ = nullptr;
  bool use_counts_ = false;

  size_t n_ = 0;
  std::vector<uint32_t> source_of_;
  std::vector<char> live_;
  std::vector<std::vector<uint64_t>> tokens_;  // empty for dead attributes

  // Gram postings CSR: sorted unique gram codes, offsets, attr ids
  // (ascending within a gram; live attributes only).
  std::vector<uint64_t> gram_keys_;
  std::vector<uint32_t> gram_offsets_;
  std::vector<uint32_t> gram_attrs_;

  // Per-attribute LSH band keys (n_ × the band count, kNoBandKey for dead /
  // token-less attributes) and the bucket CSR over sorted unique keys.
  static constexpr uint64_t kNoBandKey = ~0ULL;
  std::vector<uint64_t> band_keys_;
  std::vector<uint64_t> bucket_keys_;
  std::vector<uint32_t> bucket_offsets_;
  std::vector<uint32_t> bucket_attrs_;

  // Stored rows CSR: for each attribute, neighbors sorted ascending.
  std::vector<size_t> row_offsets_;
  std::vector<uint32_t> nbr_attr_;
  std::vector<float> nbr_sim_;

  size_t last_measure_calls_ = 0;
  SparseIndexStats stats_;
};

}  // namespace mube

#endif  // MUBE_TEXT_SPARSE_SIMILARITY_H_
