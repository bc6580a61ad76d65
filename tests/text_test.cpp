// Tests for src/text: n-gram extraction, all similarity measures (unit and
// property-based), and the precomputed similarity matrix.

#include <algorithm>
#include <memory>

#include <gtest/gtest.h>

#include "common/random.h"
#include "schema/universe.h"
#include "text/ngram.h"
#include "text/similarity.h"
#include "text/similarity_matrix.h"

namespace mube {
namespace {

// ------------------------------------------------------------------ NGram --

TEST(NGramTest, BasicTrigrams) {
  // "title" -> tit, itl, tle
  EXPECT_EQ(TriGramSet("title").size(), 3u);
  // Repeated grams dedupe: "aaaa" -> {aaa}
  EXPECT_EQ(TriGramSet("aaaa").size(), 1u);
}

TEST(NGramTest, ShortStringsFormSingleGram) {
  EXPECT_EQ(TriGramSet("id").size(), 1u);
  EXPECT_EQ(TriGramSet("a").size(), 1u);
  EXPECT_TRUE(TriGramSet("").empty());
}

TEST(NGramTest, ExactLengthString) {
  EXPECT_EQ(TriGramSet("abc").size(), 1u);
}

TEST(NGramTest, DifferentNProduceDifferentCounts) {
  EXPECT_EQ(NGramSet("abcd", 2).size(), 3u);  // ab, bc, cd
  EXPECT_EQ(NGramSet("abcd", 3).size(), 2u);  // abc, bcd
  EXPECT_EQ(NGramSet("abcd", 4).size(), 1u);
}

TEST(NGramTest, GramsAreSorted) {
  const auto grams = TriGramSet("publication year");
  EXPECT_TRUE(std::is_sorted(grams.begin(), grams.end()));
}

TEST(NGramTest, NoCollisionBetweenLengths) {
  // Packing includes length, so "ab" as a whole-string gram differs from
  // any 3-gram prefix-coincidence.
  const auto a = NGramSet("ab", 3);
  const auto b = NGramSet("abz", 3);
  EXPECT_EQ(SortedIntersectionSize(a, b), 0u);
}

TEST(NGramTest, SortedIntersectionSize) {
  EXPECT_EQ(SortedIntersectionSize({1, 3, 5}, {2, 3, 5, 9}), 2u);
  EXPECT_EQ(SortedIntersectionSize({}, {1}), 0u);
  EXPECT_EQ(SortedIntersectionSize({7}, {7}), 1u);
}

TEST(NGramTest, WordTokens) {
  EXPECT_EQ(WordTokens("publication year"),
            (std::vector<std::string>{"publication", "year"}));
  EXPECT_EQ(WordTokens("  a  b "), (std::vector<std::string>{"a", "b"}));
  EXPECT_TRUE(WordTokens("").empty());
}

// ---------------------------------------------------- Measures: unit cases --

TEST(JaccardTest, KnownValues) {
  NGramJaccard jaccard(3);
  EXPECT_DOUBLE_EQ(jaccard.Similarity("title", "title"), 1.0);
  EXPECT_DOUBLE_EQ(jaccard.Similarity("title", "zzzzz"), 0.0);
  // "keyword" grams: key eyw ywo wor ord (5); "keywords": + rds (6).
  // Intersection 5, union 6.
  EXPECT_NEAR(jaccard.Similarity("keyword", "keywords"), 5.0 / 6.0, 1e-12);
}

TEST(JaccardTest, PaperThresholdSeparatesVariants) {
  // The scenario underpinning the paper's θ = 0.75 default: plural/singular
  // variants clear it, genuinely different phrasings do not.
  NGramJaccard jaccard(3);
  EXPECT_GE(jaccard.Similarity("keyword", "keywords"), 0.75);
  EXPECT_GE(jaccard.Similarity("author", "authors"), 0.75);
  EXPECT_LT(jaccard.Similarity("author", "author name"), 0.75);
  EXPECT_LT(jaccard.Similarity("author", "writer"), 0.75);
  EXPECT_LT(jaccard.Similarity("title", "book title"), 0.75);
}

TEST(JaccardTest, EmptyInputs) {
  NGramJaccard jaccard(3);
  EXPECT_DOUBLE_EQ(jaccard.Similarity("", ""), 0.0);
  EXPECT_DOUBLE_EQ(jaccard.Similarity("title", ""), 0.0);
}

TEST(DiceTest, KnownValues) {
  NGramDice dice(3);
  EXPECT_DOUBLE_EQ(dice.Similarity("title", "title"), 1.0);
  // Dice = 2*5 / (5+6) for keyword/keywords.
  EXPECT_NEAR(dice.Similarity("keyword", "keywords"), 10.0 / 11.0, 1e-12);
  EXPECT_GE(dice.Similarity("a b", "a c"), 0.0);
}

TEST(LevenshteinTest, KnownValues) {
  LevenshteinSimilarity lev;
  EXPECT_DOUBLE_EQ(lev.Similarity("abc", "abc"), 1.0);
  // distance("kitten","sitting") = 3, max len 7.
  EXPECT_NEAR(lev.Similarity("kitten", "sitting"), 1.0 - 3.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(lev.Similarity("", "abc"), 0.0);
  EXPECT_DOUBLE_EQ(lev.Similarity("", ""), 0.0);
}

TEST(JaroWinklerTest, KnownBehaviour) {
  JaroWinklerSimilarity jw;
  EXPECT_DOUBLE_EQ(jw.Similarity("martha", "martha"), 1.0);
  // Classic example: MARTHA vs MARHTA ≈ 0.9611.
  EXPECT_NEAR(jw.Similarity("martha", "marhta"), 0.9611, 0.001);
  EXPECT_DOUBLE_EQ(jw.Similarity("abc", ""), 0.0);
  // Winkler prefix boost: common prefix scores above plain Jaro.
  EXPECT_GT(jw.Similarity("prefixab", "prefixcd"),
            jw.Similarity("abprefix", "cdprefix"));
}

TEST(TfIdfTest, RareTokensDominate) {
  const std::vector<std::string> corpus = {
      "book title", "book author", "book isbn", "book price", "isbn"};
  TfIdfCosineSimilarity tfidf(corpus);
  // "book" is ubiquitous, "isbn" rare: sharing "isbn" should score higher
  // than sharing "book".
  const double share_rare = tfidf.Similarity("book isbn", "isbn");
  const double share_common = tfidf.Similarity("book isbn", "book price");
  EXPECT_GT(share_rare, share_common);
  EXPECT_DOUBLE_EQ(tfidf.Similarity("book title", "book title"), 1.0);
  EXPECT_DOUBLE_EQ(tfidf.Similarity("", "book"), 0.0);
}

TEST(TfIdfTest, TokenOrderIsIrrelevantBitwise) {
  // Regression for a latent nondeterminism: the cosine used to fold tf·idf
  // weights in unordered_map hash order — a function of insertion history,
  // so permuting a text's tokens could change the floating-point summation
  // order and with it the last ulp of the score (enough to flip a
  // theta-edge match). The merge-join rewrite sums in lexicographic token
  // order: a permuted text (same bag of words, different insertion order
  // into any intermediate container) must score BIT-identically.
  const std::vector<std::string> corpus = {
      "alpha beta gamma delta", "beta gamma", "delta epsilon zeta",
      "eta theta iota kappa", "alpha kappa"};
  TfIdfCosineSimilarity tfidf(corpus);
  const std::string text = "alpha beta gamma delta epsilon zeta eta theta";
  const std::string permuted =
      "theta eta zeta epsilon delta gamma beta alpha";
  const std::string other = "gamma delta epsilon kappa";
  const double base = tfidf.Similarity(text, other);
  EXPECT_GT(base, 0.0);
  EXPECT_EQ(base, tfidf.Similarity(permuted, other));  // bitwise, not NEAR
  // Operand order reduces to the same merge join: symmetric bitwise too.
  EXPECT_EQ(base, tfidf.Similarity(other, text));
  // Corpus document order only feeds point lookups (document frequency),
  // never an iteration: a reshuffled corpus builds an identical measure.
  std::vector<std::string> shuffled(corpus.rbegin(), corpus.rend());
  TfIdfCosineSimilarity reshuffled(shuffled);
  EXPECT_EQ(base, reshuffled.Similarity(text, other));
}

TEST(MakeSimilarityMeasureTest, Factory) {
  EXPECT_TRUE(MakeSimilarityMeasure("jaccard3").ok());
  EXPECT_TRUE(MakeSimilarityMeasure("jaccard2").ok());
  EXPECT_TRUE(MakeSimilarityMeasure("dice3").ok());
  EXPECT_TRUE(MakeSimilarityMeasure("levenshtein").ok());
  EXPECT_TRUE(MakeSimilarityMeasure("jaro_winkler").ok());
  EXPECT_FALSE(MakeSimilarityMeasure("tfidf_cosine").ok());  // needs corpus
  EXPECT_FALSE(MakeSimilarityMeasure("nope").ok());
  EXPECT_EQ(MakeSimilarityMeasure("jaccard3").ValueOrDie()->name(),
            "jaccard3");
}

// -------------------------------------------------------------- composite --

TEST(CompositeTest, ConvexCombinationOfMembers) {
  std::vector<std::unique_ptr<SimilarityMeasure>> members;
  members.push_back(std::make_unique<NGramJaccard>(3));
  members.push_back(std::make_unique<JaroWinklerSimilarity>());
  auto composite = CompositeSimilarity::Make(std::move(members), {3.0, 1.0});
  ASSERT_TRUE(composite.ok());

  NGramJaccard jaccard(3);
  JaroWinklerSimilarity jw;
  const double expected = 0.75 * jaccard.Similarity("keyword", "keywords") +
                          0.25 * jw.Similarity("keyword", "keywords");
  EXPECT_NEAR(composite.ValueOrDie()->Similarity("keyword", "keywords"),
              expected, 1e-12);
  EXPECT_EQ(composite.ValueOrDie()->name(), "jaccard3+jaro_winkler");
}

TEST(CompositeTest, MakeValidates) {
  EXPECT_FALSE(CompositeSimilarity::Make({}, {}).ok());
  {
    std::vector<std::unique_ptr<SimilarityMeasure>> members;
    members.push_back(std::make_unique<NGramJaccard>(3));
    EXPECT_FALSE(
        CompositeSimilarity::Make(std::move(members), {1.0, 2.0}).ok());
  }
  {
    std::vector<std::unique_ptr<SimilarityMeasure>> members;
    members.push_back(std::make_unique<NGramJaccard>(3));
    EXPECT_FALSE(
        CompositeSimilarity::Make(std::move(members), {-1.0}).ok());
  }
}

TEST(CompositeTest, FactoryParsesPlusSyntax) {
  auto measure = MakeSimilarityMeasure("jaccard3+jaro_winkler+levenshtein");
  ASSERT_TRUE(measure.ok()) << measure.status().ToString();
  EXPECT_EQ(measure.ValueOrDie()->name(),
            "jaccard3+jaro_winkler+levenshtein");
  // Properties: still symmetric, bounded, reflexive.
  EXPECT_DOUBLE_EQ(measure.ValueOrDie()->Similarity("title", "title"), 1.0);
  const double ab = measure.ValueOrDie()->Similarity("title", "book title");
  EXPECT_DOUBLE_EQ(ab,
                   measure.ValueOrDie()->Similarity("book title", "title"));
  EXPECT_GT(ab, 0.0);
  EXPECT_LT(ab, 1.0);
  // A bad member name fails the whole composite.
  EXPECT_FALSE(MakeSimilarityMeasure("jaccard3+warp").ok());
}

// -------------------------------------------- Measures: shared properties --

class MeasurePropertyTest : public ::testing::TestWithParam<std::string> {
 protected:
  std::unique_ptr<SimilarityMeasure> MakeMeasure() {
    auto result = MakeSimilarityMeasure(GetParam());
    EXPECT_TRUE(result.ok());
    return result.MoveValueUnsafe();
  }
};

TEST_P(MeasurePropertyTest, SymmetricBoundedAndReflexive) {
  auto measure = MakeMeasure();
  const std::vector<std::string> samples = {
      "title",      "book title",   "author",  "authors", "isbn",
      "keyword",    "keywords",     "price",   "a",       "ab",
      "first name", "first  name",  "x y z",   "zzzz",    "publication year"};
  for (const auto& a : samples) {
    // Reflexive: identical non-empty strings score 1.
    EXPECT_DOUBLE_EQ(measure->Similarity(a, a), 1.0) << a;
    for (const auto& b : samples) {
      const double ab = measure->Similarity(a, b);
      const double ba = measure->Similarity(b, a);
      EXPECT_DOUBLE_EQ(ab, ba) << a << " vs " << b;
      EXPECT_GE(ab, 0.0) << a << " vs " << b;
      EXPECT_LE(ab, 1.0) << a << " vs " << b;
    }
  }
}

TEST_P(MeasurePropertyTest, PreparedTokensAgreeWithDirect) {
  auto measure = MakeMeasure();
  if (!measure->SupportsPreparedTokens()) GTEST_SKIP();
  const std::vector<std::string> samples = {"title", "book title", "keyword",
                                            "keywords", "ab", ""};
  for (const auto& a : samples) {
    const auto ta = measure->PrepareTokens(a);
    for (const auto& b : samples) {
      const auto tb = measure->PrepareTokens(b);
      EXPECT_DOUBLE_EQ(measure->SimilarityFromTokens(ta, tb),
                       measure->Similarity(a, b))
          << a << " vs " << b;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllMeasures, MeasurePropertyTest,
                         ::testing::Values("jaccard3", "jaccard2", "dice3",
                                           "levenshtein", "jaro_winkler"));

// -------------------------------------------------------- SimilarityMatrix --

Universe MatrixUniverse() {
  Universe u;
  {
    Source s(0, "a");
    s.AddAttribute(Attribute("keyword"));
    s.AddAttribute(Attribute("title"));
    u.AddSource(std::move(s));
  }
  {
    Source s(0, "b");
    s.AddAttribute(Attribute("keywords"));
    u.AddSource(std::move(s));
  }
  {
    Source s(0, "c");
    s.AddAttribute(Attribute("title"));
    u.AddSource(std::move(s));
  }
  return u;
}

TEST(SimilarityMatrixTest, MatchesDirectMeasure) {
  Universe u = MatrixUniverse();
  NGramJaccard measure(3);
  SimilarityMatrix matrix(u, measure);
  ASSERT_EQ(matrix.attribute_count(), 4u);

  // a.keyword (0) vs b.keywords (2).
  EXPECT_NEAR(matrix.At(0, 2), measure.Similarity("keyword", "keywords"),
              1e-6);
  // a.title (1) vs c.title (3) -> identical.
  EXPECT_NEAR(matrix.At(1, 3), 1.0, 1e-6);
  // Symmetry.
  EXPECT_DOUBLE_EQ(matrix.At(0, 2), matrix.At(2, 0));
}

TEST(SimilarityMatrixTest, SameSourcePairsAreZero) {
  Universe u = MatrixUniverse();
  NGramJaccard measure(3);
  SimilarityMatrix matrix(u, measure);
  EXPECT_DOUBLE_EQ(matrix.At(0, 1), 0.0);  // both from source a
  EXPECT_DOUBLE_EQ(matrix.At(0, 0), 0.0);  // diagonal
}

TEST(SimilarityMatrixTest, ParallelBuildBitIdentical) {
  // The matrix build must be deterministic across thread counts.
  Universe u;
  Rng rng(6);
  const std::vector<std::string> pool = {
      "title", "titles", "book title", "author", "keyword", "keywords",
      "price", "isbn",   "year",       "format"};
  for (int i = 0; i < 30; ++i) {
    std::string name = "p";
    name += std::to_string(i);
    Source s(0, name);
    for (size_t p : rng.SampleWithoutReplacement(pool.size(), 3)) {
      s.AddAttribute(Attribute(pool[p]));
    }
    u.AddSource(std::move(s));
  }
  NGramJaccard measure(3);
  SimilarityMatrix serial(u, measure, 1);
  SimilarityMatrix parallel4(u, measure, 4);
  SimilarityMatrix parallel_auto(u, measure, 0);
  for (size_t i = 0; i < serial.attribute_count(); ++i) {
    for (size_t j = 0; j < serial.attribute_count(); ++j) {
      ASSERT_EQ(serial.At(i, j), parallel4.At(i, j)) << i << "," << j;
      ASSERT_EQ(serial.At(i, j), parallel_auto.At(i, j)) << i << "," << j;
    }
  }
}

// Sorted, deduplicated code vector with `size` elements drawn from
// [0, universe) — the shape NGramSet produces, but with controllable skew.
std::vector<uint64_t> RandomCodeSet(Rng& rng, size_t size, uint64_t universe) {
  std::vector<uint64_t> codes;
  codes.reserve(size);
  while (codes.size() < size) {
    const uint64_t c = rng.Uniform(universe);
    codes.push_back(c);
    std::sort(codes.begin(), codes.end());
    codes.erase(std::unique(codes.begin(), codes.end()), codes.end());
  }
  return codes;
}

TEST(IntersectionKernelTest, GallopingMatchesLinearRandomized) {
  // Differential test across the size skews that flip the dispatch in
  // SortedIntersectionSize both ways, including the |small|*32 == |large|
  // boundary itself.
  Rng rng(1234);
  const struct {
    size_t na, nb;
  } kShapes[] = {{0, 0},  {0, 50},  {1, 1},    {1, 33},   {2, 64},
                 {2, 63}, {3, 96},  {10, 320}, {10, 319}, {10, 321},
                 {40, 45}, {128, 4096}};
  for (const auto& shape : kShapes) {
    for (int round = 0; round < 8; ++round) {
      // Mix dense universes (many collisions) with sparse ones (few).
      const uint64_t universe = (round % 2 == 0) ? 8 * (shape.nb + 4) : 1u << 20;
      const std::vector<uint64_t> a = RandomCodeSet(rng, shape.na, universe);
      const std::vector<uint64_t> b = RandomCodeSet(rng, shape.nb, universe);
      const size_t linear = LinearIntersectionSize(a, b);
      ASSERT_EQ(GallopingIntersectionSize(a, b), linear)
          << "na=" << shape.na << " nb=" << shape.nb << " round=" << round;
      ASSERT_EQ(GallopingIntersectionSize(b, a), linear);
      ASSERT_EQ(SortedIntersectionSize(a, b), linear);
      ASSERT_EQ(SortedIntersectionSize(b, a), linear);
    }
  }
}

TEST(IntersectionKernelTest, GallopingHandlesAdversarialLayouts) {
  // All of small before / after / interleaved with large, and subset runs —
  // the layouts where doubling-step bounds are most likely to be off by one.
  std::vector<uint64_t> large;
  for (uint64_t i = 0; i < 200; ++i) large.push_back(100 + 2 * i);
  const std::vector<uint64_t> before = {1, 2, 3};
  const std::vector<uint64_t> after = {10'000, 10'001};
  const std::vector<uint64_t> ends = {100, 100 + 2 * 199};
  const std::vector<uint64_t> odds = {101, 103, 105};  // between elements
  const std::vector<uint64_t> run = {100, 102, 104, 106};
  for (const auto& small : {before, after, ends, odds, run}) {
    EXPECT_EQ(GallopingIntersectionSize(small, large),
              LinearIntersectionSize(small, large));
  }
}

TEST(GramBitsetsTest, IntersectionMatchesSortedMerge) {
  const std::vector<std::string> names = {
      "title",  "titles", "book title", "author",   "author name",
      "keyword", "keywords", "price",   "isbn",     "publication year",
      "id",      "x",       "",         "format",   "formatting"};
  std::vector<std::vector<uint64_t>> sets;
  for (const std::string& name : names) sets.push_back(TriGramSet(name));
  GramBitsets bitsets(sets);
  ASSERT_TRUE(bitsets.usable());
  ASSERT_EQ(bitsets.size(), sets.size());
  for (size_t i = 0; i < sets.size(); ++i) {
    for (size_t j = 0; j < sets.size(); ++j) {
      ASSERT_EQ(bitsets.IntersectionSize(i, j),
                SortedIntersectionSize(sets[i], sets[j]))
          << names[i] << " vs " << names[j];
    }
  }
}

TEST(GramBitsetsTest, RandomCorpusMatchesSortedMerge) {
  Rng rng(777);
  std::vector<std::vector<uint64_t>> sets;
  for (int i = 0; i < 40; ++i) {
    sets.push_back(RandomCodeSet(rng, 1 + rng.Uniform(30), 500));
  }
  sets.push_back({});  // empty set row
  GramBitsets bitsets(sets);
  ASSERT_TRUE(bitsets.usable());
  for (size_t i = 0; i < sets.size(); ++i) {
    for (size_t j = i; j < sets.size(); ++j) {
      ASSERT_EQ(bitsets.IntersectionSize(i, j),
                SortedIntersectionSize(sets[i], sets[j]))
          << i << "," << j;
    }
  }
}

TEST(GramBitsetsTest, OverWideCorpusIsUnusable) {
  // More distinct grams than max_words * 64 allows -> callers must stay on
  // the sorted-vector path.
  std::vector<std::vector<uint64_t>> sets;
  std::vector<uint64_t> wide;
  for (uint64_t i = 0; i < 200; ++i) wide.push_back(i);
  sets.push_back(wide);
  GramBitsets bitsets(sets, /*max_words=*/2);  // 128 bits < 200 grams
  EXPECT_FALSE(bitsets.usable());
  EXPECT_EQ(bitsets.words(), 0u);
}

TEST(SetCountFastPathTest, CountsAgreeWithTokensBitwise) {
  // The SupportsSetCounts contract: SimilarityFromTokens(a, b) ==
  // SimilarityFromCounts(|a ∩ b|, |a|, |b|) bit for bit. This is what lets
  // the similarity matrix swap the sorted merge for bitset popcounts.
  Rng rng(4242);
  NGramJaccard jaccard(3);
  NGramDice dice(3);
  const std::vector<std::string> names = {
      "title", "titles", "book title", "author", "keyword", "keywords",
      "price", "isbn",   "year",       "format", "id",      ""};
  for (const SimilarityMeasure* measure :
       {static_cast<const SimilarityMeasure*>(&jaccard),
        static_cast<const SimilarityMeasure*>(&dice)}) {
    ASSERT_TRUE(measure->SupportsSetCounts());
    for (const std::string& a : names) {
      for (const std::string& b : names) {
        const std::vector<uint64_t> ta = measure->PrepareTokens(a);
        const std::vector<uint64_t> tb = measure->PrepareTokens(b);
        const double from_tokens = measure->SimilarityFromTokens(ta, tb);
        const double from_counts = measure->SimilarityFromCounts(
            SortedIntersectionSize(ta, tb), ta.size(), tb.size());
        ASSERT_EQ(from_tokens, from_counts)
            << measure->name() << ": '" << a << "' vs '" << b << "'";
      }
    }
    // And on synthetic skewed sets that exercise the galloping dispatch.
    for (int round = 0; round < 20; ++round) {
      const std::vector<uint64_t> ta = RandomCodeSet(rng, 3, 1u << 16);
      const std::vector<uint64_t> tb = RandomCodeSet(rng, 200, 1u << 16);
      ASSERT_EQ(measure->SimilarityFromTokens(ta, tb),
                measure->SimilarityFromCounts(
                    SortedIntersectionSize(ta, tb), ta.size(), tb.size()));
    }
  }
}

TEST(SimilarityMatrixTest, BitsetPathBitIdenticalToDirectMeasure) {
  // A corpus big enough that the matrix build takes the registered-gram
  // bitset path; every entry must still equal the measure evaluated
  // directly on the attribute names (float-cast, as the matrix stores
  // floats).
  Universe u;
  Rng rng(31);
  const std::vector<std::string> pool = {
      "title",  "titles",   "book title", "author", "author name",
      "keyword", "keywords", "price",     "isbn",   "publication year",
      "year",    "format",   "language",  "pages",  "publisher"};
  for (int i = 0; i < 25; ++i) {
    Source s(0, "src" + std::to_string(i));
    for (size_t p : rng.SampleWithoutReplacement(pool.size(), 4)) {
      s.AddAttribute(Attribute(pool[p]));
    }
    u.AddSource(std::move(s));
  }
  for (const char* name : {"jaccard3", "dice3"}) {
    auto measure = MakeSimilarityMeasure(name);
    ASSERT_TRUE(measure.ok());
    SimilarityMatrix matrix(u, *measure.ValueOrDie());
    size_t checked = 0;
    for (uint32_t si = 0; si < u.size(); ++si) {
      for (uint32_t sj = si + 1; sj < u.size(); ++sj) {
        const Source& a = u.source(si);
        const Source& b = u.source(sj);
        for (uint32_t ai = 0; ai < a.attributes().size(); ++ai) {
          for (uint32_t bj = 0; bj < b.attributes().size(); ++bj) {
            const double direct = measure.ValueOrDie()->Similarity(
                a.attributes()[ai].normalized, b.attributes()[bj].normalized);
            ASSERT_EQ(matrix.At(u.GlobalAttrIndex(AttributeRef{si, ai}),
                                u.GlobalAttrIndex(AttributeRef{sj, bj})),
                      static_cast<double>(static_cast<float>(direct)));
            ++checked;
          }
        }
      }
    }
    EXPECT_GT(checked, 1000u);
  }
}

TEST(SimilarityMatrixTest, PreparedAndSlowPathsAgree) {
  // Levenshtein takes the slow path, Jaccard the prepared path; a measure
  // pair that should coincide: jaccard via matrix vs direct calls (already
  // covered) — here verify the slow path wiring with Levenshtein.
  Universe u = MatrixUniverse();
  LevenshteinSimilarity lev;
  SimilarityMatrix matrix(u, lev);
  EXPECT_NEAR(matrix.At(0, 2), lev.Similarity("keyword", "keywords"), 1e-6);
}

}  // namespace
}  // namespace mube
