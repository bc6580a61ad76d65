#ifndef MUBE_TEXT_SPARSE_SIMILARITY_H_
#define MUBE_TEXT_SPARSE_SIMILARITY_H_

#include <cstdint>
#include <initializer_list>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "common/chunked_table.h"
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
/// a clone (the epoch fork of the serving layer) shares them all. Rows,
/// tokens and the gram and band-bucket lists live in append-only segments;
/// a key table (open addressing, copy-on-write chunks) maps each gram or
/// band key to its list. A churn writes the rows it touches — the
/// re-verified rows and their old and new partners — into one new row
/// segment, and the new lists of the keys its delta touches into one new
/// list segment: nothing is copied unless the delta touched it, and no
/// scratch array has an entry per attribute.

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
  /// Gram and bucket list entries the index still holds but no key lists:
  /// the old lists of keys a churn rewrote, kept until a compaction.
  uint64_t dead_list_entries = 0;
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
  /// are themselves caused by the delta). Liveness is read from the dirty
  /// and appended sources only, so a retired source must be listed.
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

  /// Rows, attribute tokens and key lists live in append-only segments; a
  /// churn writes what it changed into one new segment of each and leaves
  /// the old entries dead. Once a kind's dead entries would pass this
  /// share of its live ones, the churn writes every live entry of that
  /// kind into one segment instead.
  static constexpr double kMaxDeadShare = 0.25;

  /// Pruning caps of the blocking: a gram listing more attributes than
  /// kMaxGramDf (a stop-gram) and a band bucket holding more than
  /// kMaxBandBucket (a degenerate band) yield no candidates.
  static constexpr size_t kMaxGramDf = 256;
  static constexpr size_t kMaxBandBucket = 128;

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

  /// Immutable buffers that attribute facts, rows or key lists point into,
  /// each written once by the churn that created it.
  struct Segments {
    std::vector<std::shared_ptr<const void>> buffers;
    size_t size = 0;  // elements across the buffers, dead ones included
    size_t live = 0;  // elements a fact, row or key points at
  };

  /// One churn's write into a Segments: the records it touched go into
  /// one new segment, or, when the dead elements would then pass
  /// kMaxDeadShare of the live ones, every record with elements does.
  /// Tokens, rows and key lists all write through it.
  class SegmentWrite {
   public:
    /// A write of `written` elements that leaves `live_after` in use.
    SegmentWrite(Segments& segments, size_t written, size_t live_after);

    bool compact() const { return compact_; }
    /// Elements of the new segment.
    size_t count() const { return count_; }

    /// Lays the segment out: calls place(i, at, size, k) for each record
    /// written, in ascending order of i, with `at` its first element in
    /// the segment. Those are the `touched` records (ascending; touched[k]
    /// gets sizes[k] elements) and, compacting, every other record
    /// i < `records` with old_size(i) > 0 elements, which get k = kKept.
    template <typename OldSize, typename Place>
    void Layout(const std::vector<uint32_t>& touched,
                const std::vector<size_t>& sizes, size_t records,
                OldSize old_size, Place place) const;
    static constexpr size_t kKept = ~size_t{0};

    /// Adds the segment's buffers; compacting, they replace every buffer.
    void Commit(std::initializer_list<std::shared_ptr<const void>> buffers);

   private:
    Segments& segments_;
    size_t live_after_;
    bool compact_;
    size_t count_;
  };

  /// A (key, attribute) entry of the gram postings or band buckets.
  struct KeyedAttr {
    uint64_t key;
    uint32_t attr;
    bool operator<(const KeyedAttr& other) const {
      return key != other.key ? key < other.key : attr < other.attr;
    }
  };

  /// Key tables copy on write in chunks of 64 slots: the ~900 keys a
  /// churn touches at 5×10⁴ sources are spread over the table, so larger
  /// chunks would copy most of it.
  static constexpr size_t kKeyChunkBits = 6;

  /// Key → ascending attribute ids (gram postings or LSH buckets), each
  /// attribute listed at most once under a key (tokens are a set and band
  /// keys are salted per band). A key table, open-addressed over a hash of
  /// the key and at most half full, holds each key whose list is not
  /// empty and where that list lies in a list segment.
  ///
  /// A list of at most `cap` ids — the only kind candidate generation
  /// reads — is stored whole, byte for byte what a build produces. A list
  /// above the cap is only ever counted until it falls back to the cap,
  /// so a churn that leaves it above writes just its pending changes
  /// against its stored base; the list is the base with the removed ids
  /// taken out and the added ones put in. A compaction, or a churn that
  /// brings the list to the cap, stores it whole again. So a churn writes
  /// in proportion to its delta even when it touches stop-grams of 10⁴
  /// ids.
  struct KeyedLists {
    explicit KeyedLists(size_t list_cap) : cap(list_cap) {}

    struct Slot {
      uint64_t key = 0;
      const uint32_t* attrs = nullptr;  // the list, or its base
      const uint32_t* pending = nullptr;  // `adds` ids, then `removes`
      uint32_t size = 0;  // ids listed; 0: the slot is empty
      uint32_t adds = 0;
      uint32_t removes = 0;

      std::span<const uint32_t> Base() const {
        return {attrs, size - adds + removes};
      }
      std::span<const uint32_t> Adds() const { return {pending, adds}; }
      std::span<const uint32_t> Removes() const {
        return {pending + adds, removes};
      }
    };
    size_t cap;
    ChunkedTable<Slot, kKeyChunkBits> slots;
    size_t keys = 0;
    // Its `live` counts the ids listed, so its dead elements count the
    // removed ids that pending changes still hold twice as well.
    Segments segments;

    /// The attributes listed under `key`: none if there are none or more
    /// than `cap`, which yield no candidates.
    std::span<const uint32_t> Find(uint64_t key) const;

    /// Takes the `removed` entries out and puts the `added` ones in (both
    /// sorted; every removed entry must be listed, no added one may be).
    /// What the touched keys store goes into one new segment (see
    /// SegmentWrite), and a key whose list empties leaves the table.
    /// Appends to `flipped` every attribute of a key whose list size
    /// crossed `cap`.
    void Apply(std::vector<KeyedAttr> removed, std::vector<KeyedAttr> added,
               std::vector<uint32_t>& flipped);

    size_t MemoryBytes() const;

   private:
    size_t Home(uint64_t key) const;
    /// The slot holding `key`, or the empty slot where it would go.
    size_t Position(uint64_t key) const;
    /// Makes room for `more` keys, rehashing into a larger table if the
    /// table would pass half full.
    void Reserve(size_t more);
    /// Empties slot p, moving later slots of its probe run back.
    void Erase(size_t p);
  };

  /// What the index keeps of one attribute. `data` points into a token
  /// segment: the kBands minhash band keys, then `token_count` sorted
  /// token codes. It is null for dead and token-less attributes, which
  /// have no band keys.
  struct AttrFacts {
    const uint64_t* data = nullptr;
    uint32_t source = 0;
    uint32_t token_count : 31 = 0;
    uint32_t live : 1 = 0;  // whether the source is live
  };

  class IdSet;
  class TouchedRows;

  /// The rows being re-verified: every row below first_clean, and those
  /// in `above`.
  struct Reverified {
    uint32_t first_clean = 0;
    const IdSet* above = nullptr;
    bool Contains(uint32_t j) const;
  };

  /// Reads the sources and liveness of the `refreshed` attributes
  /// (ascending: the dirty sources' and every one from `old_n` on),
  /// re-derives their tokens and minhash band keys and applies their
  /// delta to the gram postings and LSH buckets (no measure calls).
  /// Returns the attributes of every gram or bucket whose size crossed
  /// its pruning cap, unsorted.
  std::vector<uint32_t> RefreshAttributes(
      const Universe& universe, const SimilarityMeasure& measure,
      size_t old_n, const std::vector<uint32_t>& refreshed);

  std::span<const uint64_t> TokensOf(size_t i) const {
    const AttrFacts& f = facts_[i];
    return {f.data == nullptr ? nullptr : f.data + kBands, f.token_count};
  }

  /// Appends every candidate partner of `i` to `out`, each once and
  /// same-source partners left out. Partners j < i whose row is
  /// re-verified too are left out as well: that row scores the pair.
  /// `seen` (empty, the caller's) gets every partner scanned.
  void GenerateCandidates(size_t i, const Reverified& reverified,
                          IdSet& seen, std::vector<uint32_t>& out) const;

  /// Verifies row i's candidates (see GenerateCandidates) and appends its
  /// stored entries to `out`, sorted by partner. Adds one to
  /// `measure_calls` per candidate scored. Leaves `seen` empty.
  void VerifyRow(size_t i, const Reverified& reverified, IdSet& seen,
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

  /// Verifies the rows `reverify` lists (ascending) on `pool`.
  Verified VerifyRows(const Reverified& reverified,
                      const std::vector<uint32_t>& reverify,
                      ThreadPool& pool) const;

  /// Writes the rows the verified entries touch — the re-verified rows,
  /// with their mirrors, and their old and new partners — into a new row
  /// segment (see SegmentWrite).
  void SpliceRows(size_t old_n, const Reverified& reverified,
                  const std::vector<uint32_t>& reverify,
                  const Verified& verified, ThreadPool& pool);

  /// The blocking tallies of the rows `reverify` lists, from per-source
  /// counts of those rows and the live attribute count.
  void CountPairs(const Universe& universe,
                  const std::vector<uint32_t>& reverify,
                  uint64_t measure_calls);

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

  uint64_t live_attrs_ = 0;  // attributes of live sources

  // Everything below is shared with clones and never written in place: a
  // churn publishes new tables and segments beside the old ones.
  static constexpr size_t kBands = 8;
  using FactsTable = ChunkedTable<AttrFacts, 10>;
  FactsTable facts_;
  Segments token_segments_;
  // Gram postings and LSH buckets over the live attributes.
  KeyedLists postings_{kMaxGramDf};
  KeyedLists buckets_{kMaxBandBucket};
  using RowTable = ChunkedTable<Row, 10>;
  RowTable rows_;
  Segments row_segments_;

  size_t last_measure_calls_ = 0;
  SparseIndexStats stats_;
};

}  // namespace mube

#endif  // MUBE_TEXT_SPARSE_SIMILARITY_H_
