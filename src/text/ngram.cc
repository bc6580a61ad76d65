#include "text/ngram.h"

#include <algorithm>

#include "common/logging.h"
#include "sketch/simd.h"

namespace mube {

namespace {
uint64_t PackGram(std::string_view gram) {
  uint64_t code = 0;
  for (unsigned char c : gram) code = (code << 8) | c;
  // Offset by length so that e.g. "a" and "\0a" cannot collide.
  return code + (static_cast<uint64_t>(gram.size()) << 56);
}
}  // namespace

std::vector<uint64_t> NGramSet(std::string_view text, size_t n) {
  MUBE_CHECK(n >= 1 && n <= 8);
  std::vector<uint64_t> grams;
  if (text.empty()) return grams;
  if (text.size() <= n) {
    grams.push_back(PackGram(text));
    return grams;
  }
  grams.reserve(text.size() - n + 1);
  for (size_t i = 0; i + n <= text.size(); ++i) {
    grams.push_back(PackGram(text.substr(i, n)));
  }
  std::sort(grams.begin(), grams.end());
  grams.erase(std::unique(grams.begin(), grams.end()), grams.end());
  return grams;
}

std::vector<std::string> WordTokens(std::string_view text) {
  std::vector<std::string> tokens;
  size_t i = 0;
  while (i < text.size()) {
    while (i < text.size() && text[i] == ' ') ++i;
    size_t start = i;
    while (i < text.size() && text[i] != ' ') ++i;
    if (i > start) tokens.emplace_back(text.substr(start, i - start));
  }
  return tokens;
}

size_t LinearIntersectionSize(std::span<const uint64_t> a,
                              std::span<const uint64_t> b) {
  size_t count = 0;
  auto ia = a.begin();
  auto ib = b.begin();
  while (ia != a.end() && ib != b.end()) {
    if (*ia == *ib) {
      ++count;
      ++ia;
      ++ib;
    } else if (*ia < *ib) {
      ++ia;
    } else {
      ++ib;
    }
  }
  return count;
}

size_t GallopingIntersectionSize(std::span<const uint64_t> a,
                                 std::span<const uint64_t> b) {
  const std::span<const uint64_t> small = a.size() <= b.size() ? a : b;
  const std::span<const uint64_t> large = a.size() <= b.size() ? b : a;
  size_t count = 0;
  auto pos = large.begin();  // Both sides ascend, so the scan never backs up.
  for (uint64_t needle : small) {
    // Exponential search: double the step until we overshoot `needle`, then
    // binary-search the final bracket. O(log distance) per element.
    size_t step = 1;
    auto lo = pos;
    auto hi = pos;
    while (hi != large.end() && *hi < needle) {
      lo = hi;
      const size_t remaining = static_cast<size_t>(large.end() - hi);
      hi += static_cast<ptrdiff_t>(std::min(step, remaining));
      step *= 2;
    }
    pos = std::lower_bound(lo, hi, needle);
    if (pos == large.end()) break;
    if (*pos == needle) {
      ++count;
      ++pos;
      if (pos == large.end()) break;
    }
  }
  return count;
}

size_t SortedIntersectionSize(std::span<const uint64_t> a,
                              std::span<const uint64_t> b) {
  const size_t small = std::min(a.size(), b.size());
  const size_t large = std::max(a.size(), b.size());
  // Gallop only under strong skew: the linear merge does `small + large`
  // comparisons, galloping about `small · log2(large)`; ×32 leaves margin
  // for galloping's worse constants and branch behavior.
  if (small * 32 < large) return GallopingIntersectionSize(a, b);
  return LinearIntersectionSize(a, b);
}

GramBitsets::GramBitsets(const std::vector<std::vector<uint64_t>>& sets,
                         size_t max_words) {
  // Corpus dictionary: sorted union of all gram codes; a gram's index is
  // its dense id. Sorting keeps ids deterministic for identical corpora.
  std::vector<uint64_t> dictionary;
  size_t total = 0;
  for (const auto& set : sets) total += set.size();
  dictionary.reserve(total);
  for (const auto& set : sets) {
    dictionary.insert(dictionary.end(), set.begin(), set.end());
  }
  std::sort(dictionary.begin(), dictionary.end());
  dictionary.erase(std::unique(dictionary.begin(), dictionary.end()),
                   dictionary.end());

  const size_t words = (dictionary.size() + 63) / 64;
  if (words > max_words) return;  // !usable_: caller stays on sorted vectors.

  usable_ = true;
  rows_ = sets.size();
  words_ = words;
  bits_.assign(rows_ * words_, 0);
  for (size_t i = 0; i < rows_; ++i) {
    uint64_t* row = bits_.data() + i * words_;
    for (uint64_t gram : sets[i]) {
      // Input sets are subsets of the dictionary by construction, so the
      // lower bound is always an exact hit.
      const size_t id = static_cast<size_t>(
          std::lower_bound(dictionary.begin(), dictionary.end(), gram) -
          dictionary.begin());
      row[id / 64] |= uint64_t{1} << (id % 64);
    }
  }
}

size_t GramBitsets::IntersectionSize(size_t i, size_t j) const {
  MUBE_CHECK(usable_);
  return static_cast<size_t>(simd::AndPopcount(row(i), row(j), words_));
}

}  // namespace mube
