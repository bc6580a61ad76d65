// Differential tests of the sparse candidate-blocked similarity index
// (src/text/sparse_similarity.h) against the dense SimilarityMatrix ground
// truth, plus the engine-level selection rule and metrics wiring. The
// contract under test: for every pair the dense matrix scores >= the
// index's floor, the sparse index stores a bit-identical float, and every
// consumer (Matcher, naive matcher, Mube engine) produces identical output
// on either implementation.

#include <algorithm>
#include <cstring>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/random.h"

#include "core/mube.h"
#include "datagen/generator.h"
#include "datagen/scale.h"
#include "dynamic/churn.h"
#include "dynamic/delta_universe.h"
#include "gtest/gtest.h"
#include "match/matcher.h"
#include "match/naive_matcher.h"
#include "metrics/metrics.h"
#include "text/similarity.h"
#include "text/similarity_matrix.h"
#include "text/sparse_similarity.h"

namespace mube {
namespace {

/// Row i's >= theta neighbors as (id, float bit pattern) — bitwise row
/// comparison across implementations.
std::vector<std::pair<uint32_t, uint32_t>> Row(const SimilaritySource& sim,
                                               size_t i, double theta) {
  std::vector<std::pair<uint32_t, uint32_t>> row;
  sim.ForEachNeighborAtLeast(i, theta, [&](size_t j, float s) {
    uint32_t bits;
    std::memcpy(&bits, &s, sizeof(bits));
    row.emplace_back(static_cast<uint32_t>(j), bits);
  });
  return row;
}

/// Every row of `sim` at its floor, for whole-index comparisons.
std::vector<std::vector<std::pair<uint32_t, uint32_t>>> AllRows(
    const SimilaritySource& sim) {
  std::vector<std::vector<std::pair<uint32_t, uint32_t>>> rows;
  for (size_t i = 0; i < sim.attribute_count(); ++i) {
    rows.push_back(Row(sim, i, sim.neighbor_floor()));
  }
  return rows;
}

/// A perturbed Books universe — the paper's workload shape (shared domain
/// vocabulary, variant renames, off-domain noise) without tuples.
Universe BooksUniverse(size_t num_sources, uint64_t seed = 7) {
  GeneratorConfig config;
  config.seed = seed;
  config.num_sources = num_sources;
  config.attach_tuples = false;
  auto generated = GenerateUniverse(config);
  EXPECT_TRUE(generated.ok());
  return std::move(generated.ValueOrDie().universe);
}

TEST(SparseSimilarityTest, AtBitIdenticalToDenseForEveryPair) {
  const Universe u = BooksUniverse(50);
  NGramJaccard measure(3);
  SimilarityMatrix dense(u, measure);
  SparseSimilarityIndex sparse(u, measure);
  const size_t n = u.total_attribute_count();
  ASSERT_EQ(sparse.attribute_count(), n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) {
      // Stored pairs return the stored float; unstored pairs go through the
      // exact fallback — both must equal the dense cell bitwise.
      ASSERT_EQ(sparse.At(i, j), dense.At(i, j)) << i << "," << j;
    }
  }
}

TEST(SparseSimilarityTest, NeighborRowsMatchDenseScanAtMatcherTheta) {
  const Universe u = BooksUniverse(60);
  NGramJaccard measure(3);
  SimilarityMatrix dense(u, measure);
  SparseSimilarityIndex sparse(u, measure);
  for (double theta : {0.5, 0.75, 0.9}) {
    for (size_t i = 0; i < u.total_attribute_count(); ++i) {
      ASSERT_EQ(Row(sparse, i, theta), Row(dense, i, theta))
          << "theta " << theta << " row " << i;
    }
  }
}

/// The subset graph as a sorted list of (global from, global to, float
/// bits), for comparing SubsetEdgesAtLeast with per-row enumeration.
using EdgeList = std::vector<std::tuple<uint32_t, uint32_t, uint32_t>>;

EdgeList SubsetGraph(const SimilaritySource& sim,
                     const std::vector<uint32_t>& attrs, double theta) {
  std::vector<SimilaritySource::SubsetEdge> edges;
  sim.SubsetEdgesAtLeast(attrs, theta, edges);
  EdgeList out;
  for (const SimilaritySource::SubsetEdge& e : edges) {
    uint32_t bits;
    std::memcpy(&bits, &e.similarity, sizeof(bits));
    out.emplace_back(attrs[e.from], attrs[e.to], bits);
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// What a subset graph must hold: (i, j) with i < j for each i in the
/// subset and each row neighbor j of i inside the subset.
EdgeList RowsInsideSubset(const SimilaritySource& sim,
                          const std::vector<uint32_t>& attrs, double theta) {
  EdgeList out;
  for (uint32_t i : attrs) {
    for (const auto& [j, bits] : Row(sim, i, theta)) {
      if (j < i) continue;
      if (std::binary_search(attrs.begin(), attrs.end(), j)) {
        out.emplace_back(i, j, bits);
      }
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

TEST(SparseSimilarityTest, SubsetEdgesAreTheRowsInsideTheSubset) {
  const Universe u = BooksUniverse(60);
  NGramJaccard measure(3);
  SimilarityMatrix dense(u, measure);
  SparseSimilarityIndex sparse(u, measure);

  Rng rng(11);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<uint32_t> attrs;
    for (size_t p : rng.SampleWithoutReplacement(u.total_attribute_count(),
                                                 5 + rng.Uniform(60))) {
      attrs.push_back(static_cast<uint32_t>(p));
    }
    std::sort(attrs.begin(), attrs.end());
    for (double theta : {0.5, 0.75, 0.9}) {
      // Both backends: each pair once, as (u, v) with u < v.
      for (const SimilaritySource* sim :
           std::vector<const SimilaritySource*>{&dense, &sparse}) {
        std::vector<SimilaritySource::SubsetEdge> edges;
        sim->SubsetEdgesAtLeast(attrs, theta, edges);
        for (const SimilaritySource::SubsetEdge& e : edges) {
          ASSERT_LT(e.from, e.to);
        }
        const EdgeList graph = SubsetGraph(*sim, attrs, theta);
        EXPECT_EQ(std::adjacent_find(graph.begin(), graph.end()),
                  graph.end());
        EXPECT_EQ(graph, RowsInsideSubset(*sim, attrs, theta));
      }
    }
  }
}

TEST(SparseSimilarityTest, SameSourceAndDiagonalAreZero) {
  // Two sources sharing an identical attribute name: cross-source pairs
  // score 1.0, same-source and diagonal pairs 0 on both implementations.
  Universe u;
  for (const char* name : {"a", "b"}) {
    Source s(0, name);
    s.AddAttribute(Attribute("title"));
    s.AddAttribute(Attribute("title"));
    u.AddSource(std::move(s));
  }
  NGramJaccard measure(3);
  SparseSimilarityIndex sparse(u, measure);
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(sparse.At(i, i), 0.0);
  }
  EXPECT_EQ(sparse.At(0, 1), 0.0);  // same source
  EXPECT_EQ(sparse.At(2, 3), 0.0);
  EXPECT_EQ(sparse.At(0, 2), 1.0);  // cross source, identical name
  EXPECT_EQ(sparse.At(1, 3), 1.0);
  EXPECT_TRUE(Row(sparse, 0, 0.5) ==
              (std::vector<std::pair<uint32_t, uint32_t>>{
                  {2, 0x3f800000u}, {3, 0x3f800000u}}));
}

TEST(SparseSimilarityTest, ApplyChurnBitIdenticalToFreshRebuild) {
  Universe u = BooksUniverse(40);
  NGramJaccard measure(3);
  SparseSimilarityIndex index(u, measure);

  // Churn: retire two sources, rename an attribute, append two sources.
  std::vector<uint32_t> dirty = {3, 17};
  u.RetireSource(3);
  u.RetireSource(17);
  ASSERT_TRUE(
      u.mutable_source(5).RenameAttribute(0, "Publication Year").ok());
  dirty.push_back(5);
  {
    Universe extra = BooksUniverse(42, /*seed=*/9);
    dirty.push_back(u.AddSource(extra.source(40)));
    dirty.push_back(u.AddSource(extra.source(41)));
  }
  index.ApplyChurn(u, measure, dirty);
  const size_t churn_calls = index.last_measure_calls();

  SparseSimilarityIndex rebuilt(u, measure);
  // A build is itself a churn splice (from the empty index), so also hold
  // the churned rows against the dense matrix, built independently.
  SimilarityMatrix dense(u, measure);
  ASSERT_EQ(index.attribute_count(), rebuilt.attribute_count());
  const double floor = index.neighbor_floor();
  for (size_t i = 0; i < index.attribute_count(); ++i) {
    const auto row = Row(index, i, floor);
    ASSERT_EQ(row, Row(rebuilt, i, floor)) << "row " << i;
    ASSERT_EQ(row, Row(dense, i, floor)) << "row " << i;
    // Symmetric: j is in row i iff i is in row j.
    for (const auto& [j, bits] : row) {
      const auto mirror = Row(index, j, floor);
      ASSERT_TRUE(std::binary_search(
          mirror.begin(), mirror.end(),
          std::make_pair(static_cast<uint32_t>(i), bits)))
          << i << " in row " << j;
    }
  }
  // Incremental: the delta touched ~5 of 42 sources, so churn must cost
  // well under a rebuild.
  EXPECT_LT(churn_calls, rebuilt.last_measure_calls() / 2);
}

/// Live cross-source attribute pairs with at least one endpoint flagged in
/// `touched` (every such pair when `touched` is all set), each counted once.
uint64_t ComparablePairsTouching(const Universe& u,
                                 const std::vector<char>& touched) {
  uint64_t pairs = 0;
  const size_t n = u.total_attribute_count();
  for (size_t i = 0; i < n; ++i) {
    const AttributeRef a = u.RefFromGlobalIndex(i);
    if (!u.alive(a.source_id)) continue;
    for (size_t j = i + 1; j < n; ++j) {
      const AttributeRef b = u.RefFromGlobalIndex(j);
      if (!u.alive(b.source_id) || a.source_id == b.source_id) continue;
      if (touched[i] || touched[j]) ++pairs;
    }
  }
  return pairs;
}

TEST(SparseSimilarityTest, BlockingTalliesCountEachComparablePairOnce) {
  // Few enough attributes that no gram's df and no LSH bucket can reach
  // its cap: churn then re-verifies exactly the dirty sources' rows.
  Universe u = BooksUniverse(12);
  ASSERT_LE(u.total_attribute_count(), 128u);
  NGramJaccard measure(3);
  SparseSimilarityIndex index(u, measure);
  const SparseIndexStats& stats = index.stats();
  EXPECT_GT(stats.candidate_pairs, 0u);
  EXPECT_GT(stats.pruned_pairs, 0u);
  EXPECT_EQ(stats.candidate_pairs, index.last_measure_calls());
  EXPECT_EQ(stats.candidate_pairs + stats.pruned_pairs,
            ComparablePairsTouching(
                u, std::vector<char>(u.total_attribute_count(), 1)));

  // Retire one source, rename an attribute of another, append a third.
  std::vector<uint32_t> dirty = {2, 7};
  u.RetireSource(2);
  ASSERT_TRUE(u.mutable_source(7).RenameAttribute(0, "Title Of Book").ok());
  {
    Universe extra = BooksUniverse(14, /*seed=*/9);
    dirty.push_back(u.AddSource(extra.source(13)));
  }
  std::vector<char> reverified(u.total_attribute_count(), 0);
  for (uint32_t sid : dirty) {
    for (uint32_t a = 0; a < u.source(sid).attribute_count(); ++a) {
      reverified[u.GlobalAttrIndex(AttributeRef(sid, a))] = 1;
    }
  }
  index.ApplyChurn(u, measure, dirty);
  EXPECT_GT(stats.candidate_pairs, 0u);
  EXPECT_EQ(stats.candidate_pairs, index.last_measure_calls());
  EXPECT_EQ(stats.candidate_pairs + stats.pruned_pairs,
            ComparablePairsTouching(u, reverified));
}

TEST(SparseSimilarityTest, RetiredSourceRowsEmptyAndAtZero) {
  Universe u = BooksUniverse(30);
  NGramJaccard measure(3);
  SparseSimilarityIndex index(u, measure);
  const uint32_t victim = 4;
  const size_t first = u.GlobalAttrIndex(AttributeRef(victim, 0));
  const size_t count = u.source(victim).attribute_count();
  u.RetireSource(victim);
  index.ApplyChurn(u, measure, {victim});
  for (size_t a = first; a < first + count; ++a) {
    EXPECT_TRUE(Row(index, a, index.neighbor_floor()).empty());
    EXPECT_EQ(index.At(a, (a + count) % index.attribute_count()), 0.0);
  }
  // Surviving rows must not enumerate the retired attributes.
  for (size_t i = 0; i < index.attribute_count(); ++i) {
    for (const auto& [j, bits] : Row(index, i, index.neighbor_floor())) {
      (void)bits;
      EXPECT_TRUE(j < first || j >= first + count);
    }
  }
}

TEST(SparseSimilarityTest, CloneIsIndependentOfSubsequentChurn) {
  Universe u = BooksUniverse(30);
  NGramJaccard measure(3);
  SparseSimilarityIndex index(u, measure);
  std::vector<std::vector<std::pair<uint32_t, uint32_t>>> before;
  for (size_t i = 0; i < index.attribute_count(); ++i) {
    before.push_back(Row(index, i, index.neighbor_floor()));
  }
  std::unique_ptr<SimilaritySource> clone = index.CloneSource();
  u.RetireSource(0);
  index.ApplyChurn(u, measure, {0});
  ASSERT_EQ(clone->attribute_count(), before.size());
  for (size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(Row(*clone, i, clone->neighbor_floor()), before[i]);
  }
  // The mutated original diverged (source 0's rows emptied).
  EXPECT_NE(Row(index, 0, index.neighbor_floor()), before[0]);
}

TEST(SparseSimilarityTest, ChurnAcrossCompactionsEqualsRebuild) {
  // Churn leaves rewritten rows' old entries dead in their segments; the
  // batch that would take them past kMaxDeadShare of the live entries
  // compacts every row into one segment instead. Every batch — the one
  // that compacts, the one after it, and those between — must leave the
  // rows and tallies of a fresh build, at most that share larger.
  // Scale-generator families keep rows narrow, so one batch rewrites a
  // few percent of the entries (a Books universe's shared vocabulary makes
  // nearly every batch rewrite most of them, so each one would compact).
  ScaleConfig scale;
  scale.num_sources = 600;
  Universe u = std::move(GenerateScaleUniverse(scale).ValueOrDie().universe);
  scale.num_sources = 630;
  const Universe extra =
      std::move(GenerateScaleUniverse(scale).ValueOrDie().universe);
  NGramJaccard measure(3);
  SparseSimilarityIndex index(u, measure);
  const double bound = SparseSimilarityIndex::kMaxDeadShare;
  std::vector<size_t> compacted;
  size_t appended = 0;
  uint64_t dead_before = 0;
  size_t appended_after_compaction = 0;
  for (size_t batch = 0; batch < 20; ++batch) {
    const std::vector<uint32_t> alive = u.AliveSourceIds();
    const uint32_t renamed = alive[(batch * 7) % alive.size()];
    std::vector<uint32_t> dirty = {renamed};
    ASSERT_TRUE(u.mutable_source(renamed)
                    .RenameAttribute(0, "Edition " + std::to_string(batch))
                    .ok());
    if (batch % 3 == 2) {
      const uint32_t retired = alive[(batch * 11 + 3) % alive.size()];
      if (retired != renamed) {
        u.RetireSource(retired);
        dirty.push_back(retired);
      }
      dirty.push_back(u.AddSource(
          extra.source(static_cast<uint32_t>(600 + appended++ % 30))));
    }
    index.ApplyChurn(u, measure, dirty);

    const SparseIndexStats stats = index.stats();
    SparseSimilarityIndex rebuilt(u, measure);
    ASSERT_EQ(AllRows(index), AllRows(rebuilt)) << "batch " << batch;
    ASSERT_EQ(stats.stored_pairs, rebuilt.stats().stored_pairs);
    EXPECT_EQ(rebuilt.stats().dead_entries, 0u);
    EXPECT_LE(static_cast<double>(stats.dead_entries),
              bound * 2.0 * static_cast<double>(stats.stored_pairs));
    EXPECT_LE(static_cast<double>(index.MemoryBytes()),
              (1.0 + bound) * static_cast<double>(rebuilt.MemoryBytes()))
        << "batch " << batch;
    if (stats.dead_entries < dead_before) compacted.push_back(batch);
    if (!compacted.empty() && compacted.back() + 1 == batch &&
        stats.dead_entries > 0) {
      ++appended_after_compaction;
    }
    dead_before = stats.dead_entries;
  }
  // The bound was crossed at least twice, and a batch after a compaction
  // appended a segment again.
  EXPECT_GE(compacted.size(), 2u);
  EXPECT_GT(appended_after_compaction, 0u);
}

TEST(SparseSimilarityTest, CapFlipsAndListCompactionsEqualRebuild) {
  // Two groups of identically named attributes sit exactly at the pruning
  // caps. The kMaxGramDf copies of "qzjqzjq" pair only through their
  // grams (their band buckets are degenerate), the kMaxBandBucket copies
  // of "wxvwxvw" only through their band buckets (fillers that contain
  // the name push its grams one past the df cap). Each round adds two
  // more copies of a group and retires them again, one per batch: the
  // lists cross their cap up, change while above it, and cross back down,
  // and every crossing must drop or restore the group's pairs exactly as
  // a fresh build does. Each round also adds a filler, so the fillers'
  // gram lists carry pending changes through the list compactions the
  // rounds cause; retiring the added fillers and one more brings those
  // lists back to the cap at the end.
  const size_t df_cap = SparseSimilarityIndex::kMaxGramDf;
  const size_t bucket_cap = SparseSimilarityIndex::kMaxBandBucket;
  Universe u = BooksUniverse(20);
  auto add = [&](const std::string& name) {
    std::string source_name = "src";
    source_name += std::to_string(u.size());
    Source source(0, source_name);
    source.AddAttribute(Attribute(name));
    return u.AddSource(std::move(source));
  };
  const std::string gram_name = "qzjqzjq";
  const std::string bucket_name = "wxvwxvw";
  Rng rng(11);
  auto add_filler = [&]() {
    // A long word of letters outside both names keeps a filler's band
    // keys apart from the group's.
    std::string name = bucket_name + " ";
    for (int c = 0; c < 24; ++c) {
      name += "abcdefghiklmnoprstuy"[rng.Uniform(20)];
    }
    return add(name);
  };
  const uint32_t gram_first = add(gram_name);
  for (size_t s = 1; s < df_cap; ++s) add(gram_name);
  const uint32_t bucket_first = add(bucket_name);
  for (size_t s = 1; s < bucket_cap; ++s) add(bucket_name);
  std::vector<uint32_t> fillers;
  for (size_t s = 0; s <= df_cap - bucket_cap; ++s) {
    fillers.push_back(add_filler());
  }
  const size_t gram_attr = u.GlobalAttrIndex(AttributeRef(gram_first, 0));
  const size_t bucket_attr = u.GlobalAttrIndex(AttributeRef(bucket_first, 0));

  NGramJaccard measure(3);
  SparseSimilarityIndex index(u, measure);
  const double floor = index.neighbor_floor();
  ASSERT_EQ(Row(index, gram_attr, floor).size(), df_cap - 1);
  ASSERT_EQ(Row(index, bucket_attr, floor).size(), bucket_cap - 1);

  const double bound = SparseSimilarityIndex::kMaxDeadShare;
  size_t list_compactions = 0;
  uint64_t dead_lists_before = 0;
  size_t batch = 0;
  // Applies a batch that changed `source` and holds the index against a
  // fresh build and the dead-share and memory bounds.
  auto churn = [&](uint32_t source) {
    index.ApplyChurn(u, measure, {source});
    SparseSimilarityIndex rebuilt(u, measure);
    ASSERT_EQ(AllRows(index), AllRows(rebuilt)) << "batch " << batch;
    const SparseIndexStats stats = index.stats();
    ASSERT_EQ(stats.stored_pairs, rebuilt.stats().stored_pairs);
    EXPECT_LE(static_cast<double>(stats.dead_entries),
              bound * 2.0 * static_cast<double>(stats.stored_pairs));
    EXPECT_LE(static_cast<double>(index.MemoryBytes()),
              (1.0 + bound) * static_cast<double>(rebuilt.MemoryBytes()))
        << "batch " << batch;
    if (stats.dead_list_entries < dead_lists_before) ++list_compactions;
    dead_lists_before = stats.dead_list_entries;
    ++batch;
  };
  std::vector<uint32_t> added_fillers;
  for (size_t round = 0; round < 3; ++round) {
    for (const auto& [name, attr] : {std::pair(gram_name, gram_attr),
                                      std::pair(bucket_name, bucket_attr)}) {
      // Up past the cap, further up, back to one above, then down to it.
      uint32_t copies[2] = {0, 0};
      for (size_t step = 0; step < 4; ++step) {
        uint32_t& copy = copies[step % 2];
        if (step < 2) {
          copy = add(name);
        } else {
          u.RetireSource(copy);
        }
        churn(copy);
        // Above the cap the group pairs with nothing; at it, with itself.
        EXPECT_EQ(Row(index, attr, floor).empty(), step < 3)
            << name << " round " << round << " step " << step;
      }
    }
    added_fillers.push_back(add_filler());
    churn(added_fillers.back());
  }
  added_fillers.push_back(fillers.front());
  for (uint32_t filler : added_fillers) {
    u.RetireSource(filler);
    churn(filler);
  }
  EXPECT_GE(list_compactions, 2u);
}

TEST(SparseSimilarityDeathTest, ChurnCannotDropAttributes) {
  // Churn only ever appends attribute slots; a universe with fewer of them
  // than the index is a wiring bug, not a churn.
  const Universe larger = BooksUniverse(20);
  const Universe smaller = BooksUniverse(10);
  ASSERT_LT(smaller.total_attribute_count(), larger.total_attribute_count());
  NGramJaccard measure(3);
  SparseSimilarityIndex index(larger, measure);
  EXPECT_DEATH(index.ApplyChurn(smaller, measure, {}), "");
}

TEST(SparseSimilarityTest, MatcherIdenticalOnDenseAndSparse) {
  const Universe u = BooksUniverse(60);
  NGramJaccard measure(3);
  SimilarityMatrix dense(u, measure);
  SparseSimilarityIndex sparse(u, measure);
  Matcher dense_matcher(u, dense);
  Matcher sparse_matcher(u, sparse);
  std::vector<uint32_t> ids;
  for (uint32_t i = 0; i < u.size(); i += 2) ids.push_back(i);
  for (const ClusterLinkage linkage :
       {ClusterLinkage::kMax, ClusterLinkage::kAverage}) {
    for (const double theta : {0.6, 0.75, 0.9}) {
      MatchOptions options;
      options.theta = theta;
      options.linkage = linkage;
      auto want = dense_matcher.Match(ids, options);
      auto have = sparse_matcher.Match(ids, options);
      ASSERT_TRUE(want.ok() && have.ok());
      EXPECT_EQ(want.ValueOrDie().schema, have.ValueOrDie().schema)
          << "theta " << theta;
      EXPECT_EQ(want.ValueOrDie().quality, have.ValueOrDie().quality);
      EXPECT_EQ(want.ValueOrDie().ga_quality, have.ValueOrDie().ga_quality);
    }
  }
}

TEST(SparseSimilarityTest, MatcherRejectsThetaBelowNeighborFloor) {
  const Universe u = BooksUniverse(20);
  NGramJaccard measure(3);
  SparseIndexOptions options;
  options.index_theta = 0.5;
  SparseSimilarityIndex sparse(u, measure, options);
  Matcher matcher(u, sparse);
  std::vector<uint32_t> ids = {0, 1, 2, 3};
  MatchOptions match_options;
  match_options.theta = 0.3;  // below the index's floor: not enumerable
  auto result = matcher.Match(ids, match_options);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsInvalidArgument());

  // The dense matrix (floor 0) accepts the same theta.
  SimilarityMatrix dense(u, measure);
  Matcher dense_matcher(u, dense);
  EXPECT_TRUE(dense_matcher.Match(ids, match_options).ok());
}

TEST(SparseSimilarityTest, NaiveMatcherIdenticalOnDenseAndSparse) {
  const Universe u = BooksUniverse(40);
  NGramJaccard measure(3);
  SimilarityMatrix dense(u, measure);
  SparseSimilarityIndex sparse(u, measure);
  std::vector<uint32_t> ids;
  for (uint32_t i = 0; i < u.size(); ++i) ids.push_back(i);
  // 0.75 >= the sparse floor exercises neighbor enumeration; 0.3 exercises
  // the exhaustive below-floor fallback (exact on both implementations).
  for (const double theta : {0.75, 0.3}) {
    const NaiveMatchResult want =
        NaiveComponentsMatch(u, dense, ids, theta);
    const NaiveMatchResult have =
        NaiveComponentsMatch(u, sparse, ids, theta);
    EXPECT_EQ(want.schema, have.schema) << "theta " << theta;
    EXPECT_EQ(want.invalid_gas, have.invalid_gas);
    EXPECT_EQ(want.quality, have.quality);
  }
}

// ------------------------------------------------ engine selection + wiring --

MubeConfig EngineConfig() {
  MubeConfig config = MubeConfig::PaperDefaults();
  config.optimizer_options.max_evaluations = 400;
  config.optimizer_options.patience = 150;
  config.optimizer_options.seed = 1;
  config.max_sources = 8;
  return config;
}

TEST(SparseEngineTest, DenseAndSparseEnginesReturnIdenticalRuns) {
  const Universe u = BooksUniverse(50);
  MubeConfig dense_config = EngineConfig();
  dense_config.similarity_index = "dense";
  MubeConfig sparse_config = EngineConfig();
  sparse_config.similarity_index = "sparse";
  auto dense_engine = Mube::Create(&u, dense_config);
  auto sparse_engine = Mube::Create(&u, sparse_config);
  ASSERT_TRUE(dense_engine.ok() && sparse_engine.ok());
  EXPECT_EQ(dense_engine.ValueOrDie()->similarity().neighbor_floor(), 0.0);
  EXPECT_GT(sparse_engine.ValueOrDie()->similarity().neighbor_floor(), 0.0);
  RunSpec spec;
  spec.seed = 11;
  auto want = dense_engine.ValueOrDie()->Run(spec);
  auto have = sparse_engine.ValueOrDie()->Run(spec);
  ASSERT_TRUE(want.ok() && have.ok());
  EXPECT_EQ(want.ValueOrDie().solution.sources,
            have.ValueOrDie().solution.sources);
  EXPECT_EQ(want.ValueOrDie().solution.overall,
            have.ValueOrDie().solution.overall);
  EXPECT_EQ(want.ValueOrDie().solution.schema,
            have.ValueOrDie().solution.schema);
}

TEST(SparseEngineTest, AutoSelectionFollowsAttributeThreshold) {
  const Universe u = BooksUniverse(30);
  MubeConfig config = EngineConfig();
  config.similarity_index = "auto";
  config.sparse_attr_threshold = 10;  // universe is far above: sparse
  auto sparse_engine = Mube::Create(&u, config);
  ASSERT_TRUE(sparse_engine.ok());
  EXPECT_GT(sparse_engine.ValueOrDie()->similarity().neighbor_floor(), 0.0);

  config.sparse_attr_threshold = 1u << 20;  // far below: dense
  auto dense_engine = Mube::Create(&u, config);
  ASSERT_TRUE(dense_engine.ok());
  EXPECT_EQ(dense_engine.ValueOrDie()->similarity().neighbor_floor(), 0.0);
}

TEST(SparseEngineTest, SparseRejectsMeasureWithoutPreparedTokens) {
  const Universe u = BooksUniverse(20);
  MubeConfig config = EngineConfig();
  config.similarity_index = "sparse";
  config.similarity_measure = "levenshtein";
  auto engine = Mube::Create(&u, config);
  ASSERT_FALSE(engine.ok());
  EXPECT_TRUE(engine.status().IsInvalidArgument());

  // "auto" with the same measure silently stays dense instead.
  config.similarity_index = "auto";
  config.sparse_attr_threshold = 1;
  auto dense_engine = Mube::Create(&u, config);
  ASSERT_TRUE(dense_engine.ok());
  EXPECT_EQ(dense_engine.ValueOrDie()->similarity().neighbor_floor(), 0.0);
}

TEST(SparseEngineTest, BlockingMetricsReachTheRegistry) {
  const Universe u = BooksUniverse(40);
  MubeConfig config = EngineConfig();
  config.similarity_index = "sparse";
  auto engine = Mube::Create(&u, config);
  ASSERT_TRUE(engine.ok());
  MetricsRegistry registry;
  engine.ValueOrDie()->AttachMetrics(&registry, "mube");
  EXPECT_GT(
      registry.GetCounter("mube_similarity_candidate_pairs_total")->Value(),
      0u);
  EXPECT_GT(
      registry.GetCounter("mube_similarity_pruned_pairs_total")->Value(), 0u);
  EXPECT_GT(registry.GetGauge("mube_similarity_index_memory_bytes")->Value(),
            0.0);
  const std::string text = registry.Expose();
  EXPECT_NE(text.find("# TYPE mube_similarity_index_memory_bytes gauge"),
            std::string::npos);
}

/// A mixed batch against `u`: a rename, a removal and a re-listed copy.
std::vector<ChurnEvent> ForkBatch(const Universe& u, uint32_t round) {
  const std::vector<uint32_t> alive = u.AliveSourceIds();
  const Source& renamed = u.source(alive[(3 * round + 1) % alive.size()]);
  const Source& removed = u.source(alive[(3 * round + 2) % alive.size()]);
  const Source& model = u.source(alive[(3 * round + 3) % alive.size()]);
  Source copy(0, "copy-" + std::to_string(round) + "." + model.name());
  for (const Attribute& a : model.attributes()) {
    copy.AddAttribute(Attribute(a.name));
  }
  return {ChurnEvent::RenameAttribute(renamed.name(), 0, "Publication Year"),
          ChurnEvent::RemoveSource(removed.name()),
          ChurnEvent::AddSource(std::move(copy))};
}

TEST(SparseEngineTest, ForkClonesIndexAndStaysConsistentUnderChurn) {
  // The serving layer's COW step: fork the engine onto a cloned universe,
  // churn the clone, and check the fork's sparse index answers exactly as
  // a from-scratch engine on the mutated universe would — while the
  // parent, whose index buffers the fork shares, answers as before.
  const Universe u = BooksUniverse(40);
  MubeConfig config = EngineConfig();
  config.similarity_index = "sparse";
  std::unique_ptr<Mube> engine = Mube::Create(&u, config).ValueOrDie();
  const auto parent_rows = AllRows(engine->similarity());

  DeltaUniverse next(u.Clone());
  std::unique_ptr<Mube> fork = engine->Fork(&next.universe()).ValueOrDie();
  ChurnDelta delta;
  ASSERT_TRUE(next.ApplyAll(ForkBatch(u, 0), &delta).ok());
  ASSERT_TRUE(fork->ApplyDelta(delta).ok());

  std::unique_ptr<Mube> fresh =
      Mube::Create(&next.universe(), config).ValueOrDie();
  EXPECT_EQ(AllRows(fork->similarity()), AllRows(fresh->similarity()));
  EXPECT_NE(AllRows(fork->similarity()), parent_rows);
  EXPECT_EQ(AllRows(engine->similarity()), parent_rows);
  RunSpec spec;
  spec.seed = 5;
  const MubeResult want = fresh->Run(spec).ValueOrDie();
  const MubeResult have = fork->Run(spec).ValueOrDie();
  EXPECT_EQ(have.solution.sources, want.solution.sources);
  EXPECT_EQ(have.solution.overall, want.solution.overall);
}

TEST(SparseEngineTest, ChurnedForkOutlivesTheIndexesItSharesWith) {
  // Clone → churn → clone → churn, then destroy the first two generations:
  // the third's rows point into segments the earlier ones wrote, which
  // must outlive them.
  const Universe u = BooksUniverse(40);
  MubeConfig config = EngineConfig();
  config.similarity_index = "sparse";
  std::vector<std::unique_ptr<DeltaUniverse>> universes;
  universes.push_back(std::make_unique<DeltaUniverse>(u.Clone()));
  std::vector<std::unique_ptr<Mube>> engines;
  engines.push_back(
      Mube::Create(&universes.back()->universe(), config).ValueOrDie());
  for (uint32_t round = 1; round <= 2; ++round) {
    const Universe& base = universes.back()->universe();
    universes.push_back(std::make_unique<DeltaUniverse>(base.Clone()));
    DeltaUniverse& next = *universes.back();
    engines.push_back(engines.back()->Fork(&next.universe()).ValueOrDie());
    ChurnDelta delta;
    ASSERT_TRUE(next.ApplyAll(ForkBatch(base, round), &delta).ok());
    ASSERT_TRUE(engines.back()->ApplyDelta(delta).ok());
  }
  engines[0].reset();
  engines[1].reset();
  universes[0].reset();
  universes[1].reset();

  const Universe& last = universes[2]->universe();
  std::unique_ptr<Mube> fresh = Mube::Create(&last, config).ValueOrDie();
  EXPECT_EQ(AllRows(engines[2]->similarity()), AllRows(fresh->similarity()));
  NGramJaccard measure(3);
  const SimilarityMatrix dense(last, measure);
  for (size_t i = 0; i < last.total_attribute_count(); i += 7) {
    for (size_t j = 0; j < last.total_attribute_count(); ++j) {
      ASSERT_EQ(engines[2]->similarity().At(i, j), dense.At(i, j))
          << i << "," << j;
    }
  }
}

TEST(SparseEngineTest, ForkOutlivesItsParent) {
  // The sparse index's At() falls back to the measure for unstored pairs;
  // a fork's cloned index must still reach a live measure once the engine
  // it was forked from is gone.
  const Universe u = BooksUniverse(30);
  MubeConfig config = EngineConfig();
  config.similarity_index = "sparse";
  std::unique_ptr<Mube> fork;
  {
    auto parent = Mube::Create(&u, config);
    ASSERT_TRUE(parent.ok());
    auto forked = parent.ValueOrDie()->Fork(&u);
    ASSERT_TRUE(forked.ok());
    fork = std::move(forked).ValueOrDie();
  }
  NGramJaccard measure(3);
  SparseSimilarityIndex fresh(u, measure);
  const SimilaritySource& forked = fork->similarity();
  size_t unstored = 0;
  for (size_t i = 0; i < u.total_attribute_count(); ++i) {
    for (size_t j = i + 1; j < u.total_attribute_count(); ++j) {
      const double want = fresh.At(i, j);
      if (want <= 0.0 || want >= fresh.neighbor_floor()) continue;
      ASSERT_EQ(forked.At(i, j), want) << i << "," << j;
      ++unstored;
    }
  }
  EXPECT_GT(unstored, 0u);
}

// --------------------------------------------------------- scale generator --

TEST(ScaleGeneratorTest, DeterministicAndPrefixStable) {
  ScaleConfig config;
  config.num_sources = 450;
  auto a = GenerateScaleUniverse(config);
  auto b = GenerateScaleUniverse(config);
  config.num_sources = 650;
  auto longer = GenerateScaleUniverse(config);
  ASSERT_TRUE(a.ok() && b.ok() && longer.ok());
  const Universe& ua = a.ValueOrDie().universe;
  const Universe& ub = b.ValueOrDie().universe;
  const Universe& ul = longer.ValueOrDie().universe;
  ASSERT_EQ(ua.size(), 450u);
  ASSERT_EQ(ul.size(), 650u);
  for (uint32_t i = 0; i < ua.size(); ++i) {
    ASSERT_EQ(ua.source(i).name(), ub.source(i).name());
    ASSERT_EQ(ua.source(i).attributes(), ub.source(i).attributes());
    // Prefix stability: per-domain RNG streams make the first 450 sources
    // independent of how many domains follow.
    ASSERT_EQ(ua.source(i).attributes(), ul.source(i).attributes());
  }
}

TEST(ScaleGeneratorTest, WithinFamilyPairsClearThetaAcrossDomainsDoNot) {
  ScaleConfig config;
  config.num_sources = 400;  // two domains
  auto generated = GenerateScaleUniverse(config);
  ASSERT_TRUE(generated.ok());
  const Universe& u = generated.ValueOrDie().universe;
  NGramJaccard measure(3);
  // Group attribute names by ground-truth concept.
  std::map<int32_t, std::vector<std::string>> families;
  for (const Source& s : u.sources()) {
    for (const Attribute& a : s.attributes()) {
      families[a.concept_id].push_back(a.normalized);
    }
  }
  for (const auto& [concept_id, names] : families) {
    ASSERT_NE(concept_id, kNoConcept);
    for (size_t i = 0; i < names.size(); i += 7) {
      for (size_t j = i + 1; j < names.size(); j += 7) {
        EXPECT_GE(measure.Similarity(names[i], names[j]), 0.75)
            << names[i] << " vs " << names[j];
      }
    }
  }
}

TEST(ScaleGeneratorTest, ValidatesParameters) {
  ScaleConfig config;
  config.base_word_min = 5;  // (L-2)/L < 0.75 — the family bound breaks
  EXPECT_FALSE(GenerateScaleUniverse(config).ok());
  config = ScaleConfig();
  config.base_word_max = 24;
  config.variants_per_concept = 4;  // 24 + 3 > 26 distinct letters
  EXPECT_FALSE(GenerateScaleUniverse(config).ok());
}

}  // namespace
}  // namespace mube
