#ifndef MUBE_CORE_CONFIG_H_
#define MUBE_CORE_CONFIG_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "opt/optimizer.h"
#include "sketch/pcsa.h"
#include "text/sparse_similarity.h"

/// \file config.h
/// Top-level configuration of a µBE engine: which QEFs participate with
/// what weights, the matching threshold θ and GA-size bound β, the number
/// of sources m to select, and which solver to run. The defaults are the
/// paper's §7.1 experimental setup.

namespace mube {

/// \brief Declares one QEF of the quality function.
struct QefSpec {
  enum class Kind {
    kMatching,        ///< F1 — matching quality via Match(S)
    kCardinality,     ///< F2
    kCoverage,        ///< F3
    kRedundancy,      ///< F4
    kCharacteristic,  ///< user-defined over a named source characteristic
  };
  Kind kind = Kind::kMatching;
  double weight = 0.0;
  /// For kCharacteristic only: characteristic name, aggregator name
  /// ("wsum", "mean", "min", "max").
  std::string characteristic;
  std::string aggregator = "wsum";
  /// Orientation flip. For kCharacteristic: smaller raw values are better.
  /// For kRedundancy: *reward* overlap instead of penalizing it — selects
  /// replicated source sets whose redundancy buys availability under
  /// failures (see src/reliability). Ignored by the other kinds.
  bool invert = false;

  /// Display name matching the constructed Qef's name().
  std::string DisplayName() const;
};

/// \brief Engine configuration.
struct MubeConfig {
  /// The QEFs and their weights W (must sum to 1).
  std::vector<QefSpec> qefs;
  /// Matching threshold θ (paper default 0.75).
  double theta = 0.75;
  /// Minimum attributes per non-constraint GA (β).
  size_t beta = 2;
  /// Number of sources to select (m).
  size_t max_sources = 20;
  /// Attribute similarity measure ("jaccard3" is the paper's prototype;
  /// "tfidf_cosine" derives its corpus from the universe automatically;
  /// "a+b" builds an equal-weight composite).
  std::string similarity_measure = "jaccard3";
  /// Worker threads for the one-off similarity-matrix build: 0 = hardware
  /// concurrency, 1 = single-threaded. Bit-identical results either way.
  unsigned similarity_threads = 0;
  /// Which SimilaritySource implementation backs the Matcher:
  ///  - "auto" (default): the sparse blocked index once the universe holds
  ///    ≥ sparse_attr_threshold attributes AND the measure supports
  ///    prepared tokens; the dense matrix otherwise. tfidf_cosine (and any
  ///    other measure without prepared tokens) always stays dense.
  ///  - "dense": always the O(|A|²) SimilarityMatrix.
  ///  - "sparse": always the SparseSimilarityIndex; Create() rejects the
  ///    combination with a measure lacking prepared-token support.
  std::string similarity_index = "auto";
  /// Attribute count at which "auto" switches to the sparse index. Below
  /// it the dense matrix is small (≤ ~32 MB) and exact at any θ; above it
  /// the quadratic build starts to dominate engine construction.
  size_t sparse_attr_threshold = 4096;
  /// Sparse-index storage threshold θ_index when the sparse
  /// implementation is selected. Note sparse_options.index_theta
  /// must be ≤ every matcher θ the engine will run, or Match() rejects
  /// the run (see SimilaritySource::neighbor_floor).
  SparseIndexOptions sparse_options;
  /// PCSA signature shape shared by all sources.
  PcsaConfig pcsa;
  /// Optional interceptor of the engine's signature fetch path: every
  /// sketch the SignatureCache builds (initially and on churn refresh)
  /// passes through this hook, which returns what the source actually
  /// shipped — the honest sketch, a corrupted one, or nullopt (no
  /// signature). Null (the default) is the healthy path with zero
  /// overhead. The reliability layer's MakeFaultySignatureFetch wires a
  /// seeded FaultInjector in here, so corrupt-signature faults enter
  /// through the same code path a real source's bad bytes would.
  SignatureFetchHook signature_fetch_hook;
  /// Solver: "tabu" (default), "sls", "anneal", "pso", "exhaustive".
  std::string optimizer = "tabu";
  OptimizerOptions optimizer_options;

  /// The paper's defaults: matching .25, cardinality .25, coverage .20,
  /// redundancy .15, MTTF(wsum) .15; θ = 0.75; tabu search.
  static MubeConfig PaperDefaults();

  /// Checks weights, θ range, and m.
  Status Validate() const;

  /// Weights in QEF order (convenience for SetWeights-style updates).
  std::vector<double> Weights() const;
};

}  // namespace mube

#endif  // MUBE_CORE_CONFIG_H_
