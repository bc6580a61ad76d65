// Tests for the concurrency layer: the annotated primitives and ThreadPool
// of src/common/threading.h, the sharded memo caches (SignatureCache,
// MatchQualityQef) under concurrent load, and — the load-bearing guarantee
// of the parallel optimizer — that a fixed-seed search run is bit-identical
// at threads=1 and threads=8, down to its incumbent-Q trajectory.
//
// The cache stress tests are intentionally data-race bait: run them under
// TSan (cmake -DMUBE_SANITIZE=thread) to turn latent races into failures.

#include <algorithm>
#include <atomic>
#include <cstring>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/threading.h"
#include "datagen/generator.h"
#include "match/matcher.h"
#include "opt/optimizer.h"
#include "opt/problem.h"
#include "qef/data_qefs.h"
#include "qef/match_qef.h"
#include "qef/qef.h"
#include "schema/universe.h"
#include "sketch/signature_cache.h"
#include "text/similarity.h"
#include "text/similarity_matrix.h"
#include "text/sparse_similarity.h"

namespace mube {
namespace {

// ------------------------------------------------------------- primitives --

TEST(ResolveThreadCountTest, MapsZeroToHardware) {
  EXPECT_GE(ResolveThreadCount(0), 1u);
  EXPECT_EQ(ResolveThreadCount(1), 1u);
  EXPECT_EQ(ResolveThreadCount(7), 7u);
}

TEST(MutexTest, GuardsSharedCounter) {
  Mutex mu;
  int counter = 0;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 1000; ++i) {
        MutexLock lock(&mu);
        ++counter;
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(counter, 4000);
}

TEST(CondVarTest, WaitWakesOnSignal) {
  Mutex mu;
  CondVar cv;
  bool ready = false;
  std::thread waker([&] {
    MutexLock lock(&mu);
    ready = true;
    cv.SignalAll();
  });
  {
    MutexLock lock(&mu);
    while (!ready) cv.Wait(&mu);
    EXPECT_TRUE(ready);
  }
  waker.join();
}

// -------------------------------------------------------------- ThreadPool --

TEST(ThreadPoolTest, ParallelForVisitsEveryIndexOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.thread_count(), 4u);
  std::vector<std::atomic<int>> visits(257);
  for (auto& v : visits) v.store(0);
  pool.ParallelFor(visits.size(),
                   [&](size_t i) { visits[i].fetch_add(1); });
  for (const auto& v : visits) EXPECT_EQ(v.load(), 1);
}

TEST(ThreadPoolTest, SerialPoolRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.thread_count(), 1u);
  const std::thread::id caller = std::this_thread::get_id();
  size_t ran = 0;
  pool.ParallelFor(16, [&](size_t) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    ++ran;  // safe: inline serial path
  });
  EXPECT_EQ(ran, 16u);
}

TEST(ThreadPoolTest, EmptyAndSingletonBatches) {
  ThreadPool pool(3);
  pool.ParallelFor(0, [&](size_t) { FAIL() << "no tasks expected"; });
  std::atomic<int> ran{0};
  pool.ParallelFor(1, [&](size_t i) {
    EXPECT_EQ(i, 0u);
    ran.fetch_add(1);
  });
  EXPECT_EQ(ran.load(), 1);
}

TEST(ThreadPoolTest, NestedParallelForDoesNotDeadlock) {
  // The caller helps drain the queue, so a task issuing its own ParallelFor
  // on the same pool must complete even with a single worker in flight.
  ThreadPool pool(2);
  std::atomic<int> inner_runs{0};
  pool.ParallelFor(4, [&](size_t) {
    pool.ParallelFor(4, [&](size_t) { inner_runs.fetch_add(1); });
  });
  EXPECT_EQ(inner_runs.load(), 16);
}

TEST(ThreadPoolTest, ConsecutiveBatchesReuseWorkers) {
  ThreadPool pool(4);
  for (int round = 0; round < 50; ++round) {
    std::atomic<size_t> sum{0};
    pool.ParallelFor(10, [&](size_t i) { sum.fetch_add(i); });
    EXPECT_EQ(sum.load(), 45u);
  }
}

// --------------------------------------------------- shared caches (TSan) --

class CacheFixture {
 public:
  CacheFixture() {
    for (int i = 0; i < 12; ++i) {
      std::string name = "s";
      name += std::to_string(i);
      Source s(0, name);
      s.AddAttribute(Attribute("title"));
      s.AddAttribute(Attribute("year" + std::to_string(i % 3)));
      std::vector<uint64_t> tuples;
      for (uint64_t t = 0; t < 4000; ++t) {
        tuples.push_back(static_cast<uint64_t>(i) * 2500 + t);
      }
      s.SetTuples(std::move(tuples));
      universe_.AddSource(std::move(s));
    }
    matrix_ = std::make_unique<SimilarityMatrix>(universe_, measure_);
    matcher_ = std::make_unique<Matcher>(universe_, *matrix_);
    cache_ = std::make_unique<SignatureCache>(universe_, PcsaConfig());
  }

  std::vector<std::vector<uint32_t>> Subsets() const {
    std::vector<std::vector<uint32_t>> subsets;
    for (uint32_t a = 0; a < 12; ++a) {
      for (uint32_t b = a + 1; b < 12; ++b) {
        subsets.push_back({a, b, (b + 1) % 12 == a ? (b + 2) % 12
                                                   : (b + 1) % 12});
      }
    }
    return subsets;
  }

  Universe universe_;
  NGramJaccard measure_{3};
  std::unique_ptr<SimilarityMatrix> matrix_;
  std::unique_ptr<Matcher> matcher_;
  std::unique_ptr<SignatureCache> cache_;
};

TEST(SignatureCacheConcurrencyTest, ConcurrentUnionMemoMatchesSerial) {
  CacheFixture f;
  const auto subsets = f.Subsets();

  // Serial reference on a fresh cache.
  SignatureCache reference(f.universe_, PcsaConfig());
  std::vector<double> expected;
  expected.reserve(subsets.size());
  for (const auto& s : subsets) expected.push_back(reference.EstimateUnion(s));

  // Hammer one shared cache from many threads, every thread touching every
  // subset (maximal memo contention), across repeated rounds so hits,
  // misses, and evictions all occur concurrently.
  f.cache_->set_memo_capacity(subsets.size() / 2);
  std::vector<double> got(subsets.size() * 8, -1.0);
  ThreadPool pool(8);
  pool.ParallelFor(got.size(), [&](size_t k) {
    got[k] = f.cache_->EstimateUnion(subsets[k % subsets.size()]);
  });
  for (size_t k = 0; k < got.size(); ++k) {
    EXPECT_DOUBLE_EQ(got[k], expected[k % subsets.size()]) << k;
  }
  const auto stats = f.cache_->memo_stats();
  EXPECT_GT(stats.hits + stats.misses, 0u);
}

TEST(MatchQefConcurrencyTest, ConcurrentEvaluateMatchesSerial) {
  CacheFixture f;
  const auto subsets = f.Subsets();
  MatchOptions options;
  options.theta = 0.6;
  MatchQualityQef qef(*f.matcher_, options, {}, MediatedSchema());

  std::vector<double> expected;
  for (const auto& s : subsets) expected.push_back(qef.Evaluate(s));
  const size_t cache_after_serial = qef.cache_size();

  MatchQualityQef fresh(*f.matcher_, options, {}, MediatedSchema());
  std::vector<double> got(subsets.size() * 8, -1.0);
  ThreadPool pool(8);
  pool.ParallelFor(got.size(), [&](size_t k) {
    got[k] = fresh.Evaluate(subsets[k % subsets.size()]);
  });
  for (size_t k = 0; k < got.size(); ++k) {
    EXPECT_DOUBLE_EQ(got[k], expected[k % subsets.size()]) << k;
  }
  // Every distinct subset computed at least once, duplicates deduped.
  EXPECT_EQ(fresh.cache_size(), cache_after_serial);
}

TEST(QefSetConcurrencyTest, PooledEvaluateAllMatchesSerial) {
  CacheFixture f;
  QefSet qefs;
  MatchOptions options;
  options.theta = 0.6;
  ASSERT_TRUE(qefs.Add(std::make_unique<MatchQualityQef>(
                           *f.matcher_, options, std::vector<uint32_t>{},
                           MediatedSchema()),
                       0.4)
                  .ok());
  ASSERT_TRUE(qefs.Add(std::make_unique<CardQef>(f.universe_), 0.3).ok());
  ASSERT_TRUE(
      qefs.Add(std::make_unique<CoverageQef>(f.universe_, *f.cache_), 0.3)
          .ok());

  ThreadPool pool(4);
  for (const auto& s : f.Subsets()) {
    const std::vector<double> serial = qefs.EvaluateAll(s);
    const std::vector<double> pooled = qefs.EvaluateAll(s, &pool);
    ASSERT_EQ(serial.size(), pooled.size());
    for (size_t i = 0; i < serial.size(); ++i) {
      EXPECT_DOUBLE_EQ(serial[i], pooled[i]);
    }
  }
}

TEST(SignatureCacheConcurrencyTest, TinyMemoCapacityChurnStaysConsistent) {
  // The flat-map memo under its worst case: capacity far below the working
  // set, so every round is a storm of misses, quarter-capacity eviction
  // sweeps, and re-insertions across all 8 shards concurrently. Estimates
  // must still match a churn-free serial reference bit for bit.
  CacheFixture f;
  const auto subsets = f.Subsets();

  SignatureCache reference(f.universe_, PcsaConfig());
  std::vector<double> expected;
  expected.reserve(subsets.size());
  for (const auto& s : subsets) expected.push_back(reference.EstimateUnion(s));

  f.cache_->set_memo_capacity(8);  // 66 distinct subsets -> constant eviction
  std::vector<double> got(subsets.size() * 16, -1.0);
  ThreadPool pool(8);
  pool.ParallelFor(got.size(), [&](size_t k) {
    got[k] = f.cache_->EstimateUnion(subsets[k % subsets.size()]);
  });
  for (size_t k = 0; k < got.size(); ++k) {
    ASSERT_DOUBLE_EQ(got[k], expected[k % subsets.size()]) << k;
  }
  const auto stats = f.cache_->memo_stats();
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_GT(stats.misses, subsets.size());  // re-computation after eviction
}

TEST(MatchQefConcurrencyTest, MatchForReferencesSurviveCacheGrowth) {
  // MatchFor hands out references into the memo; the FlatMap slots move on
  // rehash, so the results are boxed and the boxed pointee must stay put.
  // Take references early (small table), force growth with every other
  // subset from many threads, then verify the early references still read
  // the same results.
  CacheFixture f;
  const auto subsets = f.Subsets();
  MatchOptions options;
  options.theta = 0.6;
  MatchQualityQef qef(*f.matcher_, options, {}, MediatedSchema());

  const size_t kEarly = 6;
  std::vector<const MatchResult*> early_refs;
  std::vector<double> early_quality;
  std::vector<size_t> early_ga_count;
  for (size_t k = 0; k < kEarly; ++k) {
    const MatchResult& r = qef.MatchFor(subsets[k]);
    early_refs.push_back(&r);
    early_quality.push_back(r.quality);
    early_ga_count.push_back(r.ga_quality.size());
  }

  ThreadPool pool(8);
  pool.ParallelFor(subsets.size() * 4, [&](size_t k) {
    (void)qef.MatchFor(subsets[k % subsets.size()]);
  });
  // The memo key is an order-independent set fingerprint, so Subsets()
  // entries that are permutations of each other share one cache entry.
  std::set<std::vector<uint32_t>> distinct;
  for (std::vector<uint32_t> s : subsets) {
    std::sort(s.begin(), s.end());
    distinct.insert(std::move(s));
  }
  ASSERT_EQ(qef.cache_size(), distinct.size());

  for (size_t k = 0; k < kEarly; ++k) {
    // Same object, same contents — and identical to a fresh lookup.
    EXPECT_EQ(early_refs[k]->quality, early_quality[k]) << k;
    EXPECT_EQ(early_refs[k]->ga_quality.size(), early_ga_count[k]) << k;
    EXPECT_EQ(&qef.MatchFor(subsets[k]), early_refs[k]) << k;
  }
}

// ------------------------------------------- solver thread-independence  --

class SolverDeterminismTest : public ::testing::TestWithParam<std::string> {};

TEST_P(SolverDeterminismTest, ThreadCountNeverChangesTheRun) {
  CacheFixture f;
  MatchOptions match_options;
  match_options.theta = 0.6;

  // One independent engine state per thread count — shared caches memoize,
  // but the *values* are pure, so results must agree regardless.
  auto run = [&](unsigned threads, SearchTrace* trace) {
    MatchQualityQef* match_ptr = nullptr;
    QefSet qefs;
    auto match_qef = std::make_unique<MatchQualityQef>(
        *f.matcher_, match_options, std::vector<uint32_t>{1},
        MediatedSchema());
    match_ptr = match_qef.get();
    EXPECT_TRUE(qefs.Add(std::move(match_qef), 0.5).ok());
    EXPECT_TRUE(qefs.Add(std::make_unique<CardQef>(f.universe_), 0.5).ok());

    Problem problem;
    problem.universe = &f.universe_;
    problem.qefs = &qefs;
    problem.match_qef = match_ptr;
    problem.effective_constraints = {1};
    problem.max_sources = 5;

    OptimizerOptions options;
    options.seed = 17;
    options.max_evaluations = 1200;
    options.patience = 0;
    options.threads = threads;
    options.trace = trace;
    auto optimizer = MakeOptimizer(GetParam(), options);
    EXPECT_TRUE(optimizer.ok());
    auto result = optimizer.ValueOrDie()->Run(problem);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return result.MoveValueUnsafe();
  };

  SearchTrace serial_trace;
  SearchTrace parallel_trace;
  const SolutionEval serial = run(1, &serial_trace);
  const SolutionEval parallel = run(8, &parallel_trace);

  // Bit-identical result: same sources, same mediated schema, same Q.
  EXPECT_EQ(serial.sources, parallel.sources);
  EXPECT_EQ(serial.overall, parallel.overall);  // exact, not NEAR
  ASSERT_EQ(serial.qef_values.size(), parallel.qef_values.size());
  for (size_t i = 0; i < serial.qef_values.size(); ++i) {
    EXPECT_EQ(serial.qef_values[i], parallel.qef_values[i]);
  }
  EXPECT_EQ(serial.schema.ToString(f.universe_),
            parallel.schema.ToString(f.universe_));

  // Bit-identical *path*: the incumbent trajectory and the final budget
  // meter reading agree step for step, not just the destination.
  EXPECT_EQ(serial_trace.evaluations, parallel_trace.evaluations);
  ASSERT_EQ(serial_trace.incumbent_q.size(),
            parallel_trace.incumbent_q.size());
  for (size_t i = 0; i < serial_trace.incumbent_q.size(); ++i) {
    EXPECT_EQ(serial_trace.incumbent_q[i], parallel_trace.incumbent_q[i]);
  }
  EXPECT_GT(serial_trace.evaluations, 0u);
  EXPECT_FALSE(serial_trace.incumbent_q.empty());
}

INSTANTIATE_TEST_SUITE_P(TrajectorySolvers, SolverDeterminismTest,
                         ::testing::Values("tabu", "sls", "anneal"));

TEST(SimilarityMatrixDeterminismTest, ThreadCountNeverChangesTheMatrix) {
  CacheFixture f;
  SimilarityMatrix serial(f.universe_, f.measure_, /*threads=*/1);
  SimilarityMatrix parallel(f.universe_, f.measure_, /*threads=*/8);
  ASSERT_EQ(serial.attribute_count(), parallel.attribute_count());
  const size_t n = serial.attribute_count();
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) {
      EXPECT_EQ(serial.At(i, j), parallel.At(i, j));
    }
  }
}

/// Every stored row of `index` as (partner, float bits), and its tallies.
struct SparseSnapshot {
  std::vector<std::vector<std::pair<uint32_t, uint32_t>>> rows;
  uint64_t candidate_pairs;
  uint64_t pruned_pairs;
  uint64_t stored_pairs;
  uint64_t dead_entries;
  size_t measure_calls;

  explicit SparseSnapshot(const SparseSimilarityIndex& index)
      : candidate_pairs(index.stats().candidate_pairs),
        pruned_pairs(index.stats().pruned_pairs),
        stored_pairs(index.stats().stored_pairs),
        dead_entries(index.stats().dead_entries),
        measure_calls(index.last_measure_calls()) {
    for (size_t i = 0; i < index.attribute_count(); ++i) {
      rows.emplace_back();
      index.ForEachNeighborAtLeast(
          i, index.neighbor_floor(), [&](size_t j, float sim) {
            uint32_t bits;
            std::memcpy(&bits, &sim, sizeof(bits));
            rows.back().emplace_back(static_cast<uint32_t>(j), bits);
          });
    }
  }

  bool operator==(const SparseSnapshot&) const = default;
};

TEST(SparseSimilarityDeterminismTest, ThreadCountNeverChangesTheIndex) {
  // Workers verify disjoint rows into their own buffers and write disjoint
  // rows of the new segment; the build and a churn splice must come out
  // bit-identical at any thread count, tallies included.
  GeneratorConfig gen;
  gen.num_sources = 80;
  gen.attach_tuples = false;
  const Universe base = std::move(GenerateUniverse(gen).ValueOrDie().universe);
  gen.seed = 9;
  const Universe extra = std::move(GenerateUniverse(gen).ValueOrDie().universe);
  NGramJaccard measure(3);

  std::vector<std::pair<SparseSnapshot, SparseSnapshot>> outcomes;
  for (unsigned threads : {1u, 2u, 4u}) {
    Universe u = base.Clone();
    SparseSimilarityIndex index(u, measure, SparseIndexOptions(), threads);
    const SparseSnapshot built(index);
    u.RetireSource(4);
    u.RetireSource(31);
    ASSERT_TRUE(u.mutable_source(12).RenameAttribute(0, "Book Title").ok());
    std::vector<uint32_t> dirty = {4, 31, 12};
    dirty.push_back(u.AddSource(extra.source(7)));
    dirty.push_back(u.AddSource(extra.source(8)));
    index.ApplyChurn(u, measure, dirty, threads);
    outcomes.emplace_back(built, SparseSnapshot(index));
  }
  EXPECT_GT(outcomes[0].second.measure_calls, 0u);
  for (size_t k = 1; k < outcomes.size(); ++k) {
    EXPECT_TRUE(outcomes[k].first == outcomes[0].first) << "build, run " << k;
    EXPECT_TRUE(outcomes[k].second == outcomes[0].second)
        << "churn, run " << k;
  }
}

}  // namespace
}  // namespace mube
