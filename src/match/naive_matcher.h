#ifndef MUBE_MATCH_NAIVE_MATCHER_H_
#define MUBE_MATCH_NAIVE_MATCHER_H_

#include <cstdint>
#include <vector>

#include "schema/mediated_schema.h"
#include "text/similarity_source.h"

/// \file naive_matcher.h
/// Transitive-closure matching — the baseline Algorithm 1 improves on.
/// The obvious way to turn pairwise similarities into multi-source
/// correspondences is a union-find over all attribute pairs with
/// similarity >= θ: the GAs are then the connected components of the
/// θ-similarity graph. Two defects make this naive:
///
///  1. **Validity violations.** Components freely absorb two attributes of
///     the same source (a ~ b and b ~ c with a, c co-located), violating
///     Definition 1; Algorithm 1's merge check makes that impossible.
///  2. **Semantic drift.** Transitive chains glue distinct concepts
///     through a chain of borderline pairs; Algorithm 1's greedy
///     best-pair-first order commits the confident merges before the
///     borderline ones can bridge concepts.
///
/// bench/baseline_comparison quantifies both on the paper's workload.

namespace mube {

class Universe;

/// \brief Output of the naive matcher.
struct NaiveMatchResult {
  /// The connected components with >= 2 members, as GAs. NOT guaranteed
  /// valid: components may contain several attributes of one source.
  MediatedSchema schema;
  /// Number of components violating Definition 1.
  size_t invalid_gas = 0;
  /// Mean per-component max pairwise similarity (comparable to
  /// MatchResult::quality).
  double quality = 0.0;
};

/// Clusters the attributes of `source_ids` (distinct ids) into
/// θ-similarity connected components. Works against any SimilaritySource:
/// when theta ≥ the source's neighbor_floor() the edges come from one
/// SubsetEdgesAtLeast call over S's attributes, so the cost depends on S
/// and not on the universe; below the floor it falls back to exhaustive
/// At() pairs, which stays exact on every implementation.
NaiveMatchResult NaiveComponentsMatch(const Universe& universe,
                                      const SimilaritySource& similarity,
                                      const std::vector<uint32_t>& source_ids,
                                      double theta);

}  // namespace mube

#endif  // MUBE_MATCH_NAIVE_MATCHER_H_
