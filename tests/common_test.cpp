// Unit and property tests for src/common: Status/Result, PRNG and samplers,
// hashing, string utilities.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "common/chunked_table.h"
#include "common/det.h"
#include "common/flat_map.h"
#include "common/hash.h"
#include "common/random.h"
#include "common/status.h"
#include "common/string_util.h"

namespace mube {
namespace {

// ---------------------------------------------------------------- Status --

TEST(StatusTest, DefaultIsOk) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kOk);
  EXPECT_EQ(st.message(), "");
  EXPECT_EQ(st.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status st = Status::InvalidArgument("bad theta");
  EXPECT_FALSE(st.ok());
  EXPECT_TRUE(st.IsInvalidArgument());
  EXPECT_EQ(st.message(), "bad theta");
  EXPECT_EQ(st.ToString(), "Invalid argument: bad theta");
}

TEST(StatusTest, CopyPreservesState) {
  Status st = Status::NotFound("x");
  Status copy = st;        // copy ctor
  Status assigned;
  assigned = st;           // copy assignment
  EXPECT_TRUE(copy.IsNotFound());
  EXPECT_TRUE(assigned.IsNotFound());
  EXPECT_EQ(copy, st);
  EXPECT_EQ(assigned, st);
}

TEST(StatusTest, MoveLeavesSourceReusable) {
  Status st = Status::Internal("boom");
  Status moved = std::move(st);
  EXPECT_FALSE(moved.ok());
  EXPECT_EQ(moved.code(), StatusCode::kInternal);
}

TEST(StatusTest, AllFactoriesProduceMatchingCodes) {
  EXPECT_EQ(Status::InvalidArgument("").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(Status::NotFound("").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::AlreadyExists("").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(Status::OutOfRange("").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::FailedPrecondition("").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(Status::Unimplemented("").code(), StatusCode::kUnimplemented);
  EXPECT_EQ(Status::Internal("").code(), StatusCode::kInternal);
  EXPECT_EQ(Status::IoError("").code(), StatusCode::kIoError);
  EXPECT_EQ(Status::Infeasible("").code(), StatusCode::kInfeasible);
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.ValueOrDie(), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("nope");
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsNotFound());
}

Result<int> Half(int x) {
  if (x % 2 != 0) return Status::InvalidArgument("odd");
  return x / 2;
}

Result<int> Quarter(int x) {
  MUBE_ASSIGN_OR_RETURN(int h, Half(x));
  MUBE_ASSIGN_OR_RETURN(int q, Half(h));
  return q;
}

TEST(ResultTest, AssignOrReturnPropagates) {
  Result<int> ok = Quarter(8);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.ValueOrDie(), 2);

  Result<int> err = Quarter(6);  // 6/2 = 3 is odd
  ASSERT_FALSE(err.ok());
  EXPECT_TRUE(err.status().IsInvalidArgument());
}

Status FailIfNegative(int x) {
  if (x < 0) return Status::OutOfRange("negative");
  return Status::OK();
}

Status CheckAll(int a, int b) {
  MUBE_RETURN_IF_ERROR(FailIfNegative(a));
  MUBE_RETURN_IF_ERROR(FailIfNegative(b));
  return Status::OK();
}

TEST(ResultTest, ReturnIfErrorPropagates) {
  EXPECT_TRUE(CheckAll(1, 2).ok());
  EXPECT_FALSE(CheckAll(1, -2).ok());
  EXPECT_FALSE(CheckAll(-1, 2).ok());
}

// ------------------------------------------------------------------- Rng --

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int differing = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() != b.Next()) ++differing;
  }
  EXPECT_GT(differing, 60);
}

TEST(RngTest, UniformRespectsBound) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.Uniform(13), 13u);
  }
}

TEST(RngTest, UniformCoversRange) {
  Rng rng(11);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.Uniform(10));
  EXPECT_EQ(seen.size(), 10u);
}

TEST(RngTest, UniformIntInclusiveBounds) {
  Rng rng(3);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    int64_t v = rng.UniformInt(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= (v == -3);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, UniformDoubleInHalfOpenUnitInterval) {
  Rng rng(5);
  for (int i = 0; i < 10000; ++i) {
    double v = rng.UniformDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, GaussianMomentsRoughlyCorrect) {
  Rng rng(17);
  const int n = 200000;
  double sum = 0.0, sum_sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double v = rng.Gaussian(10.0, 2.0);
    sum += v;
    sum_sq += v * v;
  }
  const double mean = sum / n;
  const double var = sum_sq / n - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.05);
  EXPECT_NEAR(var, 4.0, 0.1);
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(19);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(23);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> shuffled = v;
  rng.Shuffle(&shuffled);
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, v);
}

TEST(RngTest, SampleWithoutReplacementDistinctAndInRange) {
  Rng rng(29);
  for (int round = 0; round < 50; ++round) {
    std::vector<size_t> sample = rng.SampleWithoutReplacement(100, 30);
    ASSERT_EQ(sample.size(), 30u);
    std::set<size_t> unique(sample.begin(), sample.end());
    EXPECT_EQ(unique.size(), 30u);
    for (size_t s : sample) EXPECT_LT(s, 100u);
  }
}

TEST(RngTest, SampleWithoutReplacementFullSet) {
  Rng rng(31);
  std::vector<size_t> sample = rng.SampleWithoutReplacement(10, 10);
  std::set<size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 10u);
}

// ------------------------------------------------------------------ Zipf --

TEST(ZipfTest, RanksWithinBounds) {
  ZipfSampler zipf(50, 1.0);
  Rng rng(37);
  for (int i = 0; i < 10000; ++i) {
    const size_t rank = zipf.Sample(&rng);
    EXPECT_GE(rank, 1u);
    EXPECT_LE(rank, 50u);
  }
}

TEST(ZipfTest, LowRanksDominate) {
  ZipfSampler zipf(100, 1.0);
  Rng rng(41);
  int rank1 = 0, rank50 = 0;
  for (int i = 0; i < 100000; ++i) {
    const size_t rank = zipf.Sample(&rng);
    if (rank == 1) ++rank1;
    if (rank == 50) ++rank50;
  }
  // P(rank=1) / P(rank=50) = 50 under skew 1.
  EXPECT_GT(rank1, rank50 * 20);
}

TEST(ZipfTest, SkewZeroPointFiveIsFlatterThanTwo) {
  Rng rng1(43), rng2(43);
  ZipfSampler flat(100, 0.5), steep(100, 2.0);
  double flat_sum = 0, steep_sum = 0;
  for (int i = 0; i < 20000; ++i) {
    flat_sum += static_cast<double>(flat.Sample(&rng1));
    steep_sum += static_cast<double>(steep.Sample(&rng2));
  }
  EXPECT_GT(flat_sum, steep_sum * 2);
}

// ------------------------------------------------------------------ Hash --

TEST(HashTest, Mix64IsDeterministicAndSpreads) {
  EXPECT_EQ(Mix64(1), Mix64(1));
  EXPECT_NE(Mix64(1), Mix64(2));
  // Adjacent inputs should differ in many bits.
  const uint64_t diff = Mix64(100) ^ Mix64(101);
  EXPECT_GT(std::popcount(diff), 16);
}

TEST(HashTest, HashBytesSeedChangesValue) {
  EXPECT_NE(HashBytes("abc", 0), HashBytes("abc", 1));
  EXPECT_EQ(HashBytes("abc", 5), HashBytes("abc", 5));
  EXPECT_NE(HashBytes("abc"), HashBytes("abd"));
}

TEST(HashTest, SetFingerprintOrderIndependent) {
  EXPECT_EQ(SetFingerprint({1, 2, 3}), SetFingerprint({3, 1, 2}));
  EXPECT_NE(SetFingerprint({1, 2, 3}), SetFingerprint({1, 2, 4}));
  EXPECT_NE(SetFingerprint({1, 2}), SetFingerprint({1, 2, 3}));
}

TEST(HashTest, HashFamilyMembersAreIndependentish) {
  HashFamily family(8, 99);
  EXPECT_EQ(family.size(), 8u);
  // Same key through different members gives different values.
  std::set<uint64_t> values;
  for (size_t i = 0; i < family.size(); ++i) values.insert(family.Hash(i, 7));
  EXPECT_EQ(values.size(), family.size());
  // Same (member, key) is stable.
  EXPECT_EQ(family.Hash(3, 1234), family.Hash(3, 1234));
}

TEST(HashTest, HashFamilySeedDeterminesFamily) {
  HashFamily a(4, 1), b(4, 1), c(4, 2);
  EXPECT_EQ(a.Hash(0, 55), b.Hash(0, 55));
  EXPECT_NE(a.Hash(0, 55), c.Hash(0, 55));
}

// ---------------------------------------------------------------- String --

TEST(StringUtilTest, ToLower) {
  EXPECT_EQ(ToLower("AbC dEf"), "abc def");
  EXPECT_EQ(ToLower(""), "");
}

TEST(StringUtilTest, Trim) {
  EXPECT_EQ(Trim("  x  "), "x");
  EXPECT_EQ(Trim("x"), "x");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("\ta b\n"), "a b");
}

TEST(StringUtilTest, SplitKeepsEmptyPieces) {
  EXPECT_EQ(Split("a,b,,c", ','),
            (std::vector<std::string>{"a", "b", "", "c"}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(Split("abc", ','), (std::vector<std::string>{"abc"}));
}

TEST(StringUtilTest, SplitAndTrimDropsEmpties) {
  EXPECT_EQ(SplitAndTrim(" a , ,b ", ','),
            (std::vector<std::string>{"a", "b"}));
}

TEST(StringUtilTest, Join) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Join({"x"}, ","), "x");
}

TEST(StringUtilTest, NormalizeAttributeName) {
  EXPECT_EQ(NormalizeAttributeName("First_Name "), "first name");
  EXPECT_EQ(NormalizeAttributeName("first  name"), "first name");
  EXPECT_EQ(NormalizeAttributeName("ISBN-13"), "isbn 13");
  EXPECT_EQ(NormalizeAttributeName("   "), "");
  EXPECT_EQ(NormalizeAttributeName("price"), "price");
}

TEST(StringUtilTest, NormalizedFormsCollide) {
  // The property the similarity layer relies on: spelling variants of the
  // same surface form normalize identically.
  EXPECT_EQ(NormalizeAttributeName("Author-Name"),
            NormalizeAttributeName("author_name"));
  EXPECT_EQ(NormalizeAttributeName("Publication Year"),
            NormalizeAttributeName("publication__year"));
}

TEST(StringUtilTest, StartsWith) {
  EXPECT_TRUE(StartsWith("source x", "source "));
  EXPECT_FALSE(StartsWith("sourc", "source"));
  EXPECT_TRUE(StartsWith("abc", ""));
}

// ------------------------------------------------------------------- det --

TEST(DetTest, SortedKeysAndItemsAreInsertionOrderInvariant) {
  // Two hash maps holding equal contents but built in different insertion
  // orders may iterate differently (bucket chains order by arrival; rehash
  // points differ) — the closest a standard build gets to "differently
  // seeded hash runs". The det helpers must erase that difference.
  std::unordered_map<int, std::string> forward;
  std::unordered_map<int, std::string> reverse;
  for (int i = 0; i < 200; ++i) forward[i] = std::to_string(i);
  for (int i = 199; i >= 0; --i) reverse[i] = std::to_string(i);
  EXPECT_EQ(det::SortedKeys(forward), det::SortedKeys(reverse));
  EXPECT_EQ(det::SortedItems(forward), det::SortedItems(reverse));
  const std::vector<int> keys = det::SortedKeys(forward);
  ASSERT_EQ(keys.size(), 200u);
  EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
  const auto items = det::SortedItems(forward);
  EXPECT_EQ(items.front().first, 0);
  EXPECT_EQ(items.back().second, "199");
}

TEST(DetTest, SortedValuesOverSets) {
  std::unordered_set<uint32_t> a;
  std::unordered_set<uint32_t> b;
  for (uint32_t v : {7u, 3u, 11u, 5u}) a.insert(v);
  for (uint32_t v : {5u, 11u, 3u, 7u}) b.insert(v);
  EXPECT_EQ(det::SortedValues(a), det::SortedValues(b));
  EXPECT_EQ(det::SortedValues(a), (std::vector<uint32_t>{3, 5, 7, 11}));
}

TEST(DetTest, EmptyContainersYieldEmptyVectors) {
  const std::unordered_map<int, int> empty_map;
  const std::unordered_set<int> empty_set;
  EXPECT_TRUE(det::SortedKeys(empty_map).empty());
  EXPECT_TRUE(det::SortedItems(empty_map).empty());
  EXPECT_TRUE(det::SortedValues(empty_set).empty());
}

// ---------------------------------------------------------------- FlatMap --

TEST(FlatMapTest, EmptyMapBasics) {
  FlatMap<int> map;
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(map.size(), 0u);
  EXPECT_EQ(map.Find(42), nullptr);
  EXPECT_FALSE(map.Erase(42));
  EXPECT_EQ(map.EraseUpTo(10), 0u);
  EXPECT_EQ(map.EraseIf([](uint64_t, int) { return true; }), 0u);
}

TEST(FlatMapTest, TryEmplaceConstructsOnlyOnInsert) {
  FlatMap<std::string> map;
  auto [first, inserted] = map.TryEmplace(7, "original");
  ASSERT_TRUE(inserted);
  EXPECT_EQ(*first, "original");
  // Second emplace for the same key must return the existing value and must
  // NOT construct/overwrite with the new arguments.
  auto [second, inserted_again] = map.TryEmplace(7, "clobber");
  EXPECT_FALSE(inserted_again);
  EXPECT_EQ(*second, "original");
  EXPECT_EQ(map.size(), 1u);
}

TEST(FlatMapTest, DifferentialAgainstUnorderedMapUnderChurn) {
  // The memo workload: interleaved insert / lookup / erase at high load,
  // including re-insertion of previously erased keys (the case tombstone
  // schemes degrade on and robin-hood backward-shift must get right).
  FlatMap<uint64_t> map;
  std::unordered_map<uint64_t, uint64_t> reference;
  Rng rng(99);
  for (int op = 0; op < 20'000; ++op) {
    const uint64_t key = rng.Uniform(512);  // small key space -> collisions
    const uint32_t action = static_cast<uint32_t>(rng.Uniform(10));
    if (action < 5) {  // insert
      const uint64_t value = rng.Next();
      auto [ptr, inserted] = map.TryEmplace(key, value);
      const auto [it, ref_inserted] = reference.try_emplace(key, value);
      ASSERT_EQ(inserted, ref_inserted);
      ASSERT_EQ(*ptr, it->second);
    } else if (action < 8) {  // lookup
      const uint64_t* found = map.Find(key);
      const auto it = reference.find(key);
      ASSERT_EQ(found != nullptr, it != reference.end());
      if (found != nullptr) {
        ASSERT_EQ(*found, it->second);
      }
    } else {  // erase
      ASSERT_EQ(map.Erase(key), reference.erase(key) > 0);
    }
    ASSERT_EQ(map.size(), reference.size());
  }
  // Full-content sweep at the end: every surviving entry agrees.
  size_t seen = 0;
  // Order-insensitive: each entry is checked against `reference` alone.
  map.ForEach([&](uint64_t key, const uint64_t& value) {  // NOLINT(det-iteration)
    const auto it = reference.find(key);
    ASSERT_NE(it, reference.end()) << key;
    ASSERT_EQ(value, it->second);
    ++seen;
  });
  EXPECT_EQ(seen, reference.size());
}

TEST(FlatMapTest, GrowthPreservesAllEntries) {
  FlatMap<uint64_t> map;
  constexpr uint64_t kCount = 10'000;  // forces many rehashes from capacity 16
  for (uint64_t i = 0; i < kCount; ++i) {
    auto [ptr, inserted] = map.TryEmplace(i * 0x9E3779B97F4A7C15ULL, i);
    ASSERT_TRUE(inserted);
    ASSERT_EQ(*ptr, i);
  }
  ASSERT_EQ(map.size(), kCount);
  for (uint64_t i = 0; i < kCount; ++i) {
    const uint64_t* found = map.Find(i * 0x9E3779B97F4A7C15ULL);
    ASSERT_NE(found, nullptr) << i;
    ASSERT_EQ(*found, i);
  }
}

TEST(FlatMapTest, EraseIfRemovesExactlyMatchingEntries) {
  // EraseIf may re-examine entries (backward shift across the wrap-around
  // boundary) but must erase each matching entry exactly once and never
  // skip one — checked here by exact count and surviving-set content.
  FlatMap<uint64_t> map;
  constexpr uint64_t kCount = 4096;
  for (uint64_t key = 0; key < kCount; ++key) map.TryEmplace(key, key);
  const size_t erased = map.EraseIf(
      [](uint64_t, const uint64_t& value) { return value % 3 == 0; });
  EXPECT_EQ(erased, (kCount + 2) / 3);
  EXPECT_EQ(map.size(), kCount - erased);
  for (uint64_t key = 0; key < kCount; ++key) {
    const uint64_t* found = map.Find(key);
    if (key % 3 == 0) {
      ASSERT_EQ(found, nullptr) << key;
    } else {
      ASSERT_NE(found, nullptr) << key;
      ASSERT_EQ(*found, key);
    }
  }
}

TEST(FlatMapTest, EraseIfSeesEachSurvivorAtLeastOnce) {
  // The documented purity contract: pred can be called more than once per
  // entry but every entry is examined. Count distinct keys presented.
  FlatMap<int> map;
  for (uint64_t key = 1; key <= 300; ++key) map.TryEmplace(key, 0);
  std::unordered_set<uint64_t> examined;
  map.EraseIf([&](uint64_t key, int) {
    examined.insert(key);
    return key % 7 == 0;  // pure: same answer on re-examination
  });
  EXPECT_EQ(examined.size(), 300u);
}

TEST(FlatMapTest, EraseUpToEvictsRequestedCount) {
  FlatMap<uint64_t> map;
  for (uint64_t key = 0; key < 100; ++key) map.TryEmplace(key, key);
  EXPECT_EQ(map.EraseUpTo(25), 25u);
  EXPECT_EQ(map.size(), 75u);
  // Evicting more than present stops at empty.
  EXPECT_EQ(map.EraseUpTo(1'000), 75u);
  EXPECT_TRUE(map.empty());
}

TEST(FlatMapTest, MoveOnlyValues) {
  // The match-memo boxing pattern: FlatMap<std::unique_ptr<T>> must survive
  // growth, erase-shifts, and Clear without copying values.
  FlatMap<std::unique_ptr<uint64_t>> map;
  for (uint64_t key = 0; key < 500; ++key) {
    auto [ptr, inserted] =
        map.TryEmplace(key, std::make_unique<uint64_t>(key * 11));
    ASSERT_TRUE(inserted);
    ASSERT_EQ(**ptr, key * 11);
  }
  for (uint64_t key = 0; key < 500; key += 2) ASSERT_TRUE(map.Erase(key));
  for (uint64_t key = 1; key < 500; key += 2) {
    auto* found = map.Find(key);
    ASSERT_NE(found, nullptr) << key;
    ASSERT_EQ(**found, key * 11);
  }
  map.Clear();
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(map.Find(1), nullptr);
}

TEST(FlatMapTest, BoxedValuePointeeStableAcrossRehash) {
  // Slot pointers move on rehash, but the boxed pointee must not — this is
  // the reference-stability contract qef/match_qef.h relies on when handing
  // out MatchResult references across memo mutations.
  FlatMap<std::unique_ptr<uint64_t>> map;
  auto [first, inserted] = map.TryEmplace(1, std::make_unique<uint64_t>(77));
  ASSERT_TRUE(inserted);
  const uint64_t* pointee = first->get();
  for (uint64_t key = 2; key < 5'000; ++key) {  // force several rehashes
    map.TryEmplace(key, std::make_unique<uint64_t>(key));
  }
  ASSERT_NE(map.Find(1), nullptr);
  EXPECT_EQ(map.Find(1)->get(), pointee);
  EXPECT_EQ(**map.Find(1), 77u);
}

// ----------------------------------------------------------- ChunkedTable --

TEST(ChunkedTableTest, GrowAppendsValueInitializedChunks) {
  ChunkedTable<uint32_t, 2> table;
  EXPECT_EQ(table.capacity(), 0u);
  table.Grow(5);
  EXPECT_EQ(table.capacity(), 8u);
  for (size_t i = 0; i < 8; ++i) EXPECT_EQ(table[i], 0u);
  table.Grow(3);  // never shrinks
  EXPECT_EQ(table.capacity(), 8u);
}

TEST(ChunkedTableTest, CopiesShareChunksUntilEitherSideWrites) {
  ChunkedTable<uint32_t, 2> original;
  original.Grow(8);
  for (size_t i = 0; i < 8; ++i) original.Mutable(i) = static_cast<uint32_t>(i);
  const uint32_t* const unshared = &original[0];
  original.Mutable(1) = 10;  // owned and not yet shared: written in place
  EXPECT_EQ(&original[0], unshared);

  ChunkedTable<uint32_t, 2> copy = original;
  EXPECT_EQ(&copy[0], &original[0]);  // shared

  // The copy's write copies one chunk and leaves the other shared.
  copy.Mutable(2) = 20;
  EXPECT_NE(&copy[0], &original[0]);
  EXPECT_EQ(&copy[4], &original[4]);
  EXPECT_EQ(original[2], 2u);
  EXPECT_EQ(copy[1], 10u);

  // A table that has been copied never writes a shared chunk in place.
  original.Mutable(5) = 50;
  EXPECT_NE(&copy[4], &original[4]);
  EXPECT_EQ(copy[5], 5u);
  EXPECT_EQ(original[5], 50u);
  // Once copied, a chunk is owned again and written in place.
  const uint32_t* const owned = &original[4];
  original.Mutable(6) = 60;
  EXPECT_EQ(&original[4], owned);
  EXPECT_EQ(copy[6], 6u);
}

}  // namespace
}  // namespace mube
