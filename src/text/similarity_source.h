#ifndef MUBE_TEXT_SIMILARITY_SOURCE_H_
#define MUBE_TEXT_SIMILARITY_SOURCE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "text/similarity.h"

/// \file similarity_source.h
/// The similarity-lookup interface Match(S) and its callers program
/// against. Two implementations exist:
///
///  - SimilarityMatrix (text/similarity_matrix.h): the dense O(|A|²)
///    upper-triangular matrix — exact for every pair at any threshold, and
///    the right structure up to a few thousand attributes (the paper's 700
///    sources ≈ 4k attributes ≈ 32 MB).
///  - SparseSimilarityIndex (text/sparse_similarity.h): a blocked sparse
///    index — 3-gram inverted-index + minhash-LSH candidate generation,
///    exact verification, and per-attribute neighbor rows holding only
///    pairs at or above an index threshold θ_index. The only structure
///    that exists at 10⁵–10⁶ sources, where the dense pair count (10¹¹+)
///    is physically unbuildable.
///
/// The engine (core/mube.cc) selects the implementation from
/// MubeConfig::similarity_index; the dense matrix remains the ground truth
/// the sparse index is differential-tested against.

namespace mube {

class Universe;

/// \brief Pairwise attribute-similarity store over a universe's dense
/// global attribute indexes, plus threshold-neighbor enumeration.
///
/// Thread compatibility contract (both implementations): immutable after
/// build — once the constructor, Rebuild, or ApplyChurn returns, every
/// const method may be called from any number of threads without
/// synchronization. The mutators require external exclusion (they are
/// driven single-threaded from the session / snapshot-publish loop).
class SimilaritySource {
 public:
  virtual ~SimilaritySource() = default;

  /// Similarity of global attribute indexes i and j. Symmetric; the
  /// diagonal, same-source pairs, and pairs touching retired sources
  /// return 0. Exact for *every* pair in both implementations (the sparse
  /// index recomputes unstored sub-threshold pairs on demand from its
  /// registered token sets).
  virtual double At(size_t i, size_t j) const = 0;

  /// Number of global attribute slots (retired sources included).
  virtual size_t attribute_count() const = 0;

  /// Callback for ForEachNeighborAtLeast: (global attribute index j,
  /// similarity as the stored float).
  using NeighborFn = std::function<void(size_t j, float similarity)>;

  /// Invokes `fn` for every attribute j != i with At(i, j) >= theta, in
  /// ascending j order. Complete only for theta >= neighbor_floor();
  /// below the floor the sparse index cannot enumerate (its rows simply
  /// do not hold sub-floor pairs).
  virtual void ForEachNeighborAtLeast(size_t i, double theta,
                                      const NeighborFn& fn) const = 0;

  /// One θ-edge inside an attribute subset, over *positions* in the subset
  /// (not global indexes), with from < to.
  struct SubsetEdge {
    uint32_t from;
    uint32_t to;
    float similarity;
  };

  /// The θ-graph of an attribute subset: appends to `edges` one edge
  /// (u, v, At(attrs[u], attrs[v])) with u < v for every pair with
  /// similarity >= theta, and nothing else. `attrs` holds global attribute
  /// indexes in strictly ascending order. The dense matrix reads only the
  /// subset's k(k−1)/2 packed slots; the sparse index intersects the part
  /// of each member's row above it with the members after it. The cost
  /// depends on the subset, never on attribute_count(). Like
  /// ForEachNeighborAtLeast it is complete only for theta >=
  /// neighbor_floor(). The edge order is deterministic but unspecified.
  virtual void SubsetEdgesAtLeast(const std::vector<uint32_t>& attrs,
                                  double theta,
                                  std::vector<SubsetEdge>& edges) const = 0;

  /// Smallest theta for which neighbor enumeration is complete: 0 for the
  /// dense matrix, the build-time θ_index for the sparse index. Callers
  /// that enumerate (the Matcher) must reject thresholds below this.
  virtual double neighbor_floor() const = 0;

  /// Recomputes everything in place for the universe's current state
  /// (the fallback when the measure itself is corpus-derived and churn
  /// invalidates every pair). Holders of references survive.
  virtual void Rebuild(const Universe& universe,
                       const SimilarityMeasure& measure,
                       unsigned threads = 1) = 0;

  /// Incrementally reconciles with a universe mutated by churn:
  /// `dirty_sources` must list every source whose attribute set changed.
  /// Both implementations guarantee the result is bit-identical to
  /// Rebuild() on the mutated universe at a fraction of the measure calls.
  virtual void ApplyChurn(const Universe& universe,
                          const SimilarityMeasure& measure,
                          const std::vector<uint32_t>& dirty_sources,
                          unsigned threads = 1) = 0;

  /// An independent copy — the copy-on-write step of epoch forking
  /// (Mube::Fork), never a recomputation. A later mutation of either copy
  /// leaves the other unchanged. The dense matrix copies its flat buffer;
  /// the sparse index copies pointers to immutable buffers both copies
  /// share, so its clone costs O(1) whatever the index size.
  virtual std::unique_ptr<SimilaritySource> CloneSource() const = 0;

  /// Heap bytes of the derived structures this copy references (the
  /// scaling benches and the serving metrics gauge read this). Buffers
  /// shared with clones count in full in each copy.
  virtual size_t MemoryBytes() const = 0;

  /// Measure evaluations performed by the last (re)build or churn
  /// application — what blocking and incremental maintenance save.
  virtual size_t last_measure_calls() const = 0;

  /// Blocking tallies of the same operation: pairs nominated and exactly
  /// verified, and comparable pairs skipped without scoring. Only the
  /// sparse index blocks; the dense matrix scores every pair and reports 0
  /// for both.
  virtual uint64_t last_candidate_pairs() const { return 0; }
  virtual uint64_t last_pruned_pairs() const { return 0; }
};

}  // namespace mube

#endif  // MUBE_TEXT_SIMILARITY_SOURCE_H_
