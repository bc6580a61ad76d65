#ifndef MUBE_TEXT_SPARSE_SIMILARITY_H_
#define MUBE_TEXT_SPARSE_SIMILARITY_H_

#include <array>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <span>
#include <utility>
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
/// Each attribute's row holds its stored neighbors (ascending id, float
/// score). At(i, j) for an *unstored* pair falls back to an on-demand exact
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
///
/// Every derived structure is an immutable buffer behind a shared_ptr, so
/// a clone (the epoch fork of the serving layer) shares them all. Rows and
/// tokens live in append-only segments. A churn writes the rows it
/// touches — the re-verified rows and their old and new partners — into
/// one new segment, and patches the postings and buckets by its delta
/// (copying their untouched runs, with no sort): no row is copied unless
/// the delta touched it.

namespace mube {

class ThreadPool;
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
  /// Row entries the index still holds but no row reads: the old entries
  /// of rows a churn rewrote, kept until a compaction (see kMaxDeadShare).
  uint64_t dead_entries = 0;
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
/// from any number of threads once a mutator returns. Copies share only
/// immutable buffers, so a mutator may run on one copy while others are
/// read (the snapshot manager churns a fork while readers use its parent).
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

  /// Copies pointers: every derived structure is an immutable buffer
  /// shared by the clones, and a later churn of either side builds new
  /// buffers beside the shared ones.
  std::unique_ptr<SimilaritySource> CloneSource() const override {
    return std::make_unique<SparseSimilarityIndex>(*this);
  }

  /// Counts every buffer the index references in full — the segments'
  /// dead entries included — whether or not a clone shares it.
  size_t MemoryBytes() const override;

  size_t last_measure_calls() const override { return last_measure_calls_; }
  uint64_t last_candidate_pairs() const override {
    return stats_.candidate_pairs;
  }
  uint64_t last_pruned_pairs() const override { return stats_.pruned_pairs; }

  const SparseIndexStats& stats() const { return stats_; }
  const SparseIndexOptions& options() const { return options_; }

  /// Rows and attribute tokens live in append-only segments; a churn
  /// writes what it changed into one new segment and leaves the old
  /// entries dead. Once dead entries would pass this share of the live
  /// ones, the churn writes every live entry into one segment instead.
  static constexpr double kMaxDeadShare = 0.25;

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

  /// Key → ascending attribute ids (gram postings or LSH buckets): sorted
  /// unique keys, and key k's ids in attrs[offsets[k], offsets[k + 1]).
  struct Csr {
    std::vector<uint64_t> keys;
    std::vector<uint32_t> offsets{0};
    std::vector<uint32_t> attrs;
  };
  /// A (key, attribute) entry of a Csr.
  struct KeyedAttr {
    uint64_t key;
    uint32_t attr;
    bool operator<(const KeyedAttr& other) const {
      return key != other.key ? key < other.key : attr < other.attr;
    }
  };

  /// The attributes `csr` lists under `key` (empty if none).
  static std::span<const uint32_t> Lookup(const Csr& csr, uint64_t key);

  /// `old` with the `removed` entries taken out and `added` merged in
  /// (both sorted), and keys left without attributes dropped: byte for
  /// byte the CSR a build over the new entries would produce. Flags in
  /// `flipped` every attribute of a key whose list size crossed `cap`.
  static Csr PatchCsr(const Csr& old, const std::vector<KeyedAttr>& removed,
                      const std::vector<KeyedAttr>& added, size_t cap,
                      std::vector<char>& flipped);

  /// What the index keeps of one attribute. `data` points into a token
  /// segment: the kBands minhash band keys, then `token_count` sorted
  /// token codes. It is null for dead and token-less attributes, which
  /// have no band keys.
  struct AttrFacts {
    const uint64_t* data = nullptr;
    uint32_t source = 0;
    uint32_t token_count = 0;
  };

  /// Records in chunks of 2^kBits, each an immutable shared buffer: a
  /// copy of the table shares every chunk, and an Editor copies only the
  /// chunks it writes.
  template <typename T, size_t kBits>
  class ChunkedTable {
   public:
    static constexpr size_t kChunkSize = size_t{1} << kBits;
    using Chunk = std::array<T, kChunkSize>;

    const T& operator[](size_t i) const {
      return (*chunks_[i >> kBits])[i & (kChunkSize - 1)];
    }
    size_t MemoryBytes() const {
      return chunks_.capacity() * sizeof(chunks_[0]) +
             chunks_.size() * sizeof(Chunk);
    }

    /// One edit: resizes the table to `n` records (new ones T{}), then
    /// hands out each written record's chunk copied on its first write.
    class Editor {
     public:
      Editor(ChunkedTable& table, size_t n) : table_(table) {
        const size_t chunks = (n + kChunkSize - 1) >> kBits;
        owned_.resize(chunks, nullptr);
        table_.chunks_.reserve(chunks);
        while (table_.chunks_.size() < chunks) {
          auto fresh = std::make_shared<Chunk>();
          owned_[table_.chunks_.size()] = fresh.get();
          table_.chunks_.push_back(std::move(fresh));
        }
      }
      T& operator[](size_t i) {
        Chunk*& chunk = owned_[i >> kBits];
        if (chunk == nullptr) {
          auto fresh = std::make_shared<Chunk>(*table_.chunks_[i >> kBits]);
          chunk = fresh.get();
          table_.chunks_[i >> kBits] = std::move(fresh);
        }
        return (*chunk)[i & (kChunkSize - 1)];
      }

     private:
      ChunkedTable& table_;
      std::vector<Chunk*> owned_;  // chunks this edit copied or created
    };

   private:
    std::vector<std::shared_ptr<const Chunk>> chunks_;
  };

  /// Immutable buffers that attribute facts or rows point into, each
  /// written once by the churn that created it.
  struct Segments {
    std::vector<std::shared_ptr<const void>> buffers;
    size_t size = 0;  // elements across the buffers, dead ones included
    size_t live = 0;  // elements a fact or row points at

    /// Whether a churn that writes `written` elements, leaving
    /// `live_after` in use, must compact instead.
    bool MustCompact(size_t written, size_t live_after) const;
    /// Adds the buffers of a churn's segment of `count` elements;
    /// compacting, they replace every buffer.
    void Add(std::initializer_list<std::shared_ptr<const void>> added,
             size_t count, bool compact, size_t live_after);
  };

  /// Resolves the sources of attributes from `old_n` on and every
  /// source's liveness, flagging in `refresh` the attributes of sources
  /// whose liveness flipped. Then re-derives tokens and minhash band keys
  /// of the flagged attributes and patches the gram postings and LSH
  /// buckets by their delta (no measure calls), flagging too the
  /// attributes of every gram or bucket whose size crossed its pruning
  /// cap.
  void RefreshAttributes(const Universe& universe,
                         const SimilarityMeasure& measure, size_t old_n,
                         std::vector<char>& refresh);

  std::span<const uint64_t> TokensOf(size_t i) const {
    const AttrFacts& f = facts_[i];
    return {f.data == nullptr ? nullptr : f.data + kBands, f.token_count};
  }

  /// The rows being re-verified: mask[j] != 0 for each, and first_clean
  /// is the smallest j with mask[j] == 0 (n_ if none).
  struct Skip {
    const std::vector<char>& mask;
    uint32_t first_clean;
  };

  /// Appends every candidate partner of `i` to `out`, each once and
  /// same-source partners left out. Partners j < i whose row is
  /// re-verified too are left out as well: that row scores the pair.
  /// `seen` (n_ zeros, the caller's) is marked at the partners appended.
  void GenerateCandidates(size_t i, const Skip& skip, std::vector<char>& seen,
                          std::vector<uint32_t>& out) const;

  /// Verifies row i's candidates (see GenerateCandidates for `skip`) and
  /// appends its stored entries to `out`, sorted by partner. Adds one to
  /// `measure_calls` per candidate scored. Leaves `seen` all zeros.
  void VerifyRow(size_t i, const Skip& skip, std::vector<char>& seen,
                 std::vector<uint32_t>& cand_scratch, uint64_t& measure_calls,
                 std::vector<RowEntry>& out) const;

  /// The entries VerifyRows stored: row reverify[r]'s in
  /// found[r % found.size()] at range[r], and each worker's measure calls.
  struct Verified {
    std::vector<std::vector<RowEntry>> found;
    std::vector<std::pair<size_t, size_t>> range;
    std::vector<uint64_t> measure_calls;

    std::span<const RowEntry> Entries(size_t r) const {
      const std::vector<RowEntry>& buffer = found[r % found.size()];
      return {buffer.data() + range[r].first,
              buffer.data() + range[r].second};
    }
  };

  /// Verifies the rows `reverify` lists (ascending; flagged in
  /// `recompute`) on `pool`.
  Verified VerifyRows(const std::vector<char>& recompute,
                      const std::vector<uint32_t>& reverify,
                      ThreadPool& pool) const;

  /// Writes the rows the verified entries touch — the re-verified rows,
  /// with their mirrors, and their old and new partners — into a new row
  /// segment, or every row into one segment when the dead entries would
  /// pass kMaxDeadShare.
  void SpliceRows(size_t old_n, const std::vector<char>& recompute,
                  const std::vector<uint32_t>& reverify,
                  const Verified& verified, ThreadPool& pool);

  bool live(size_t i) const { return (*source_live_)[facts_[i].source]; }

  /// A stored row: `size` partners ascending in attr[], their scores in
  /// sim[], both in a row segment.
  struct Row {
    const uint32_t* attr = nullptr;
    const float* sim = nullptr;
    uint32_t size = 0;
  };
  const Row& RowOf(size_t i) const { return rows_[i]; }

  SparseIndexOptions options_;
  const SimilarityMeasure* measure_ = nullptr;
  bool use_counts_ = false;
  size_t n_ = 0;

  // Everything below is shared with clones and never written in place: a
  // churn publishes new tables and segments beside the old ones.
  static constexpr size_t kBands = 8;
  std::shared_ptr<const std::vector<char>> source_live_ =
      std::make_shared<const std::vector<char>>();
  using FactsTable = ChunkedTable<AttrFacts, 10>;
  FactsTable facts_;
  Segments token_segments_;
  // Gram postings and LSH buckets over the live attributes.
  std::shared_ptr<const Csr> postings_ = std::make_shared<const Csr>();
  std::shared_ptr<const Csr> buckets_ = std::make_shared<const Csr>();
  using RowTable = ChunkedTable<Row, 10>;
  RowTable rows_;
  Segments row_segments_;

  size_t last_measure_calls_ = 0;
  SparseIndexStats stats_;
};

}  // namespace mube

#endif  // MUBE_TEXT_SPARSE_SIMILARITY_H_
