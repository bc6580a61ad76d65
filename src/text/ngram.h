#ifndef MUBE_TEXT_NGRAM_H_
#define MUBE_TEXT_NGRAM_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

/// \file ngram.h
/// Character n-gram extraction. The paper's prototype similarity measure is
/// the Jaccard coefficient between the 3-gram sets of two attribute names
/// (§3, citing Cohen et al.). Grams are represented as packed 64-bit codes
/// (up to 8 bytes per gram) so gram sets are sorted integer vectors and
/// set intersection is a linear merge, never string hashing.

namespace mube {

/// \brief Extracts the set of character n-grams of `text` as packed codes,
/// sorted and deduplicated.
///
/// For text shorter than n, the whole text forms a single gram, so very
/// short attribute names ("id") still compare non-trivially. Requires
/// 1 <= n <= 8.
std::vector<uint64_t> NGramSet(std::string_view text, size_t n);

/// \brief The paper's default: sorted, deduplicated 3-gram codes.
inline std::vector<uint64_t> TriGramSet(std::string_view text) {
  return NGramSet(text, 3);
}

/// \brief Whitespace-separated word tokens (used by the TF-IDF measure).
std::vector<std::string> WordTokens(std::string_view text);

/// \brief |a ∩ b| for two sorted, deduplicated code vectors.
///
/// Dispatches between a linear merge and a galloping (exponential-search)
/// scan: when one side is much smaller (|small|·32 < |large|), walking the
/// large side element-by-element costs O(|large|) while galloping costs
/// O(|small|·log|large|), which wins decisively for the skewed pairs a long
/// attribute name vs. a short one produces.
size_t SortedIntersectionSize(std::span<const uint64_t> a,
                              std::span<const uint64_t> b);
inline size_t SortedIntersectionSize(const std::vector<uint64_t>& a,
                                     const std::vector<uint64_t>& b) {
  return SortedIntersectionSize(std::span<const uint64_t>(a),
                                std::span<const uint64_t>(b));
}

/// \brief Plain linear-merge |a ∩ b| (no size dispatch). Retained as the
/// differential-testing baseline for the galloping path.
size_t LinearIntersectionSize(std::span<const uint64_t> a,
                              std::span<const uint64_t> b);

/// \brief Galloping |a ∩ b|: for each element of the smaller vector, finds
/// its lower bound in the larger one by doubling steps from the previous
/// position. Correct for any sorted, deduplicated inputs; profitable only
/// for skewed sizes (SortedIntersectionSize makes that call).
size_t GallopingIntersectionSize(std::span<const uint64_t> a,
                                 std::span<const uint64_t> b);

/// \brief Registered-gram bitsets: the corpus-wide dense-id dictionary plus
/// one fixed-width bitset per input gram set, built once per
/// SimilarityMatrix construction.
///
/// The constructor sorts and dedupes the union of all input gram codes into
/// a dictionary; each distinct gram's dictionary index is its dense id, and
/// every input set becomes a bitset of width ⌈distinct/64⌉ words. Pairwise
/// intersection cardinality is then a popcount-over-AND word loop
/// (sketch/simd.h) instead of a data-dependent sorted merge — O(words) with
/// no branches, and the O(n²) matrix build touches n·words contiguous bytes
/// instead of n ragged vectors.
///
/// Counts are exact (a bitset is just another encoding of the same set), so
/// similarities computed from them are bit-identical to the sorted-vector
/// path. If the corpus has more distinct grams than `max_words` allows
/// (usable() == false), callers must stay on the sorted-vector path; rows
/// would be too wide for the bitsets to beat the merge.
class GramBitsets {
 public:
  /// \param sets       one sorted, deduplicated gram-code vector per item
  /// \param max_words  width cap; above it the representation is abandoned
  explicit GramBitsets(const std::vector<std::vector<uint64_t>>& sets,
                       size_t max_words = kDefaultMaxWords);

  /// False iff the corpus exceeded max_words (then no rows were built).
  bool usable() const { return usable_; }
  /// Words per row (0 when !usable()).
  size_t words() const { return words_; }
  /// Number of item rows.
  size_t size() const { return rows_; }

  /// Row i's bitset (words() words). Requires usable() and i < size().
  const uint64_t* row(size_t i) const { return bits_.data() + i * words_; }

  /// |set_i ∩ set_j| by popcount-over-AND. Requires usable().
  size_t IntersectionSize(size_t i, size_t j) const;

  /// 8 KB of row per item at most (64K distinct grams) — past that the
  /// rows are mostly zeros for typical attribute names and the sorted
  /// merge, which is O(set size) not O(corpus size), wins back its
  /// advantage.
  static constexpr size_t kDefaultMaxWords = 1024;

 private:
  bool usable_ = false;
  size_t rows_ = 0;
  size_t words_ = 0;
  std::vector<uint64_t> bits_;  // row-major rows_ × words_
};

}  // namespace mube

#endif  // MUBE_TEXT_NGRAM_H_
