// Google-benchmark microbenches for the µBE hot paths: the pairwise
// similarity kernel, similarity-matrix construction, Match(S) clustering
// (on the dense matrix and the sparse index, at two universe sizes),
// PCSA updates/merges/estimates, and whole-solution evaluation. These are
// the costs that determine whether the interactive loop of §6 stays in the
// "minutes" envelope the paper targets.
//
// Before the benchmarks run, main() executes the raw-speed GATE: exit-code-
// enforced speedup bars for the vectorized kernels of sketch/simd.h against
// the retained reference-scalar mode, with bit-identical-output assertions,
// writing BENCH_raw_speed.json. `--raw_speed_gate_only` runs just the gate
// (the CI raw-speed-smoke job). MUBE_BENCH_QUICK=1 scales the bars down for
// shared runners; a -DMUBE_SIMD=off build verifies bit-identity only (both
// paths are then the same scalar code, so a speedup bar would be
// meaningless).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "bench/bench_util.h"
#include "common/logging.h"
#include "common/random.h"
#include "common/timer.h"
#include "datagen/generator.h"
#include "datagen/scale.h"
#include "dynamic/churn.h"
#include "dynamic/delta_universe.h"
#include "exec/executor.h"
#include "match/matcher.h"
#include "qef/match_qef.h"
#include "sketch/pcsa.h"
#include "sketch/signature_cache.h"
#include "sketch/simd.h"
#include "text/ngram.h"
#include "text/similarity.h"
#include "text/similarity_matrix.h"
#include "text/sparse_similarity.h"

namespace mube {
namespace {

const GeneratedUniverse& SharedUniverse() {
  static const GeneratedUniverse* const kGenerated = [] {
    GeneratorConfig config;
    config.num_sources = 200;
    config.min_cardinality = 1'000;
    config.max_cardinality = 20'000;
    config.tuple_pool_size = 100'000;
    config.specialty_tuples_min = 10;
    config.specialty_tuples_max = 100;
    auto result = GenerateUniverse(config);
    return new GeneratedUniverse(  // NOLINT(naked-new): leaky singleton
        std::move(result).ValueOrDie());
  }();
  return *kGenerated;
}

void BM_JaccardSimilarity(benchmark::State& state) {
  NGramJaccard jaccard(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        jaccard.Similarity("publication year", "publication date"));
  }
}
BENCHMARK(BM_JaccardSimilarity);

void BM_JaccardPreparedTokens(benchmark::State& state) {
  NGramJaccard jaccard(3);
  const auto a = jaccard.PrepareTokens("publication year");
  const auto b = jaccard.PrepareTokens("publication date");
  for (auto _ : state) {
    benchmark::DoNotOptimize(jaccard.SimilarityFromTokens(a, b));
  }
}
BENCHMARK(BM_JaccardPreparedTokens);

void BM_SimilarityMatrixBuild(benchmark::State& state) {
  const Universe& universe = SharedUniverse().universe;
  NGramJaccard jaccard(3);
  for (auto _ : state) {
    SimilarityMatrix matrix(universe, jaccard);
    benchmark::DoNotOptimize(matrix.attribute_count());
  }
  state.SetLabel(std::to_string(universe.total_attribute_count()) +
                 " attributes");
}
BENCHMARK(BM_SimilarityMatrixBuild)->Unit(benchmark::kMillisecond);

/// Schema-only universes for the Match(S) benches, with both similarity
/// backends, built once per universe size and kept for the process.
struct MatchBed {
  explicit MatchBed(size_t num_sources)
      : universe([num_sources] {
          GeneratorConfig config;
          config.num_sources = num_sources;
          config.attach_tuples = false;
          return std::move(GenerateUniverse(config).ValueOrDie().universe);
        }()),
        dense(universe, jaccard, /*threads=*/0),
        sparse(universe, jaccard, SparseIndexOptions(), /*threads=*/0) {}

  NGramJaccard jaccard{3};
  Universe universe;
  SimilarityMatrix dense;
  SparseSimilarityIndex sparse;
};

const MatchBed& SharedMatchBed(size_t num_sources) {
  static std::map<size_t, std::unique_ptr<MatchBed>> beds;
  std::unique_ptr<MatchBed>& bed = beds[num_sources];
  if (!bed) bed = std::make_unique<MatchBed>(num_sources);
  return *bed;
}

/// Match(S) over 64 random m-source subsets of a |U|-source universe;
/// args (m, |U|). The cost should track m and stay flat in |U|.
void RunMatchSubset(benchmark::State& state, bool sparse) {
  const MatchBed& bed =
      SharedMatchBed(static_cast<size_t>(state.range(1)));
  const SimilaritySource& similarity =
      sparse ? static_cast<const SimilaritySource&>(bed.sparse) : bed.dense;
  Matcher matcher(bed.universe, similarity);
  MatchOptions options;
  options.theta = 0.75;

  Rng rng(7);
  const size_t m = static_cast<size_t>(state.range(0));
  std::vector<std::vector<uint32_t>> subsets;
  for (int i = 0; i < 64; ++i) {
    std::vector<uint32_t> subset;
    for (size_t p : rng.SampleWithoutReplacement(bed.universe.size(), m)) {
      subset.push_back(static_cast<uint32_t>(p));
    }
    subsets.push_back(std::move(subset));
  }
  size_t i = 0;
  for (auto _ : state) {
    auto result = matcher.Match(subsets[i++ % subsets.size()], options);
    benchmark::DoNotOptimize(result.ok());
  }
  state.SetLabel(std::to_string(similarity.attribute_count()) +
                 " attributes");
}

void BM_MatchSubset(benchmark::State& state) { RunMatchSubset(state, false); }
void BM_MatchSubsetSparse(benchmark::State& state) {
  RunMatchSubset(state, true);
}
// Dense at |U| = 2000 holds ~12k attributes: a ~300 MB packed triangle.
BENCHMARK(BM_MatchSubset)
    ->Args({10, 200})->Args({20, 200})->Args({50, 200})->Args({20, 2000})
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_MatchSubsetSparse)
    ->Args({10, 200})->Args({20, 200})->Args({50, 200})->Args({20, 2000})
    ->Unit(benchmark::kMicrosecond);

void BM_PcsaAdd(benchmark::State& state) {
  PcsaSketch sketch;
  uint64_t i = 0;
  for (auto _ : state) {
    sketch.Add(i++ * 0x9e3779b97f4a7c15ULL);
  }
}
BENCHMARK(BM_PcsaAdd);

void BM_PcsaMergeAndEstimate(benchmark::State& state) {
  PcsaSketch a, b;
  for (uint64_t i = 0; i < 100'000; ++i) {
    a.Add(i * 3);
    b.Add(i * 5);
  }
  for (auto _ : state) {
    PcsaSketch merged = a;
    benchmark::DoNotOptimize(merged.MergeFrom(b).ok());
    benchmark::DoNotOptimize(merged.Estimate());
  }
}
BENCHMARK(BM_PcsaMergeAndEstimate);

void BM_UnionEstimate20Sources(benchmark::State& state) {
  const GeneratedUniverse& generated = SharedUniverse();
  static const SignatureCache* const cache =
      new SignatureCache(generated.universe, PcsaConfig());
  Rng rng(13);
  for (auto _ : state) {
    state.PauseTiming();
    std::vector<uint32_t> subset;
    for (size_t p :
         rng.SampleWithoutReplacement(generated.universe.size(), 20)) {
      subset.push_back(static_cast<uint32_t>(p));
    }
    state.ResumeTiming();
    benchmark::DoNotOptimize(cache->EstimateUnion(subset));
  }
}
BENCHMARK(BM_UnionEstimate20Sources)->Unit(benchmark::kMicrosecond);

void BM_MatchQefMemoHit(benchmark::State& state) {
  const Universe& universe = SharedUniverse().universe;
  static const NGramJaccard jaccard(3);
  static const SimilarityMatrix* const matrix =
      new SimilarityMatrix(universe, jaccard);
  Matcher matcher(universe, *matrix);
  MatchOptions options;
  options.theta = 0.75;
  MatchQualityQef qef(matcher, options, {}, MediatedSchema());
  std::vector<uint32_t> subset;
  for (uint32_t i = 0; i < 20; ++i) subset.push_back(i * 7);
  qef.Evaluate(subset);  // warm the cache
  for (auto _ : state) {
    benchmark::DoNotOptimize(qef.Evaluate(subset));
  }
}
BENCHMARK(BM_MatchQefMemoHit);

void BM_SimilarityMatrixBuildParallel(benchmark::State& state) {
  const Universe& universe = SharedUniverse().universe;
  NGramJaccard jaccard(3);
  const unsigned threads = static_cast<unsigned>(state.range(0));
  for (auto _ : state) {
    SimilarityMatrix matrix(universe, jaccard, threads);
    benchmark::DoNotOptimize(matrix.attribute_count());
  }
}
BENCHMARK(BM_SimilarityMatrixBuildParallel)->Arg(1)->Arg(4)->Arg(0)
    ->Unit(benchmark::kMillisecond);

/// A scale-generator universe, its sparse index, and the same universe
/// after one fixed 10-event batch of web_churn's shape: 4 attribute
/// renames, 3 re-listed copies of live schemas, 3 removals.
struct ChurnBed {
  explicit ChurnBed(size_t num_sources)
      : universe([num_sources] {
          ScaleConfig config;
          config.num_sources = num_sources;
          return std::move(
              GenerateScaleUniverse(config).ValueOrDie().universe);
        }()),
        churned(universe.Clone()),
        index(universe, jaccard) {
    const uint32_t stride = static_cast<uint32_t>(num_sources / 11);
    for (uint32_t e = 0; e < 4; ++e) {
      const uint32_t sid = (e + 1) * stride;
      const std::string name = churned.source(sid).attribute(0).name;
      MUBE_CHECK(
          churned.mutable_source(sid).RenameAttribute(0, name + " r").ok());
      dirty.push_back(sid);
    }
    for (uint32_t e = 4; e < 7; ++e) {
      const Source& model = churned.source((e + 1) * stride);
      Source copy(0, "copy." + model.name());
      for (const Attribute& a : model.attributes()) {
        copy.AddAttribute(Attribute(a.name));
      }
      dirty.push_back(churned.AddSource(std::move(copy)));
    }
    for (uint32_t e = 7; e < 10; ++e) {
      churned.RetireSource((e + 1) * stride);
      dirty.push_back((e + 1) * stride);
    }
  }

  NGramJaccard jaccard{3};
  Universe universe;
  Universe churned;
  std::vector<uint32_t> dirty;
  SparseSimilarityIndex index;
};

/// What an epoch publish spends in the sparse index: clone it, then splice
/// the batch in. Arg: |U|. The cost should track the batch, not |U|.
void BM_SparseChurnSplice(benchmark::State& state) {
  static std::map<int64_t, std::unique_ptr<ChurnBed>> beds;
  std::unique_ptr<ChurnBed>& bed = beds[state.range(0)];
  if (!bed) {
    bed = std::make_unique<ChurnBed>(static_cast<size_t>(state.range(0)));
  }
  for (auto _ : state) {
    std::unique_ptr<SimilaritySource> clone = bed->index.CloneSource();
    clone->ApplyChurn(bed->churned, bed->jaccard, bed->dirty);
    benchmark::DoNotOptimize(clone->attribute_count());
  }
  state.SetLabel(std::to_string(bed->index.attribute_count()) +
                 " attributes");
}
BENCHMARK(BM_SparseChurnSplice)->Arg(5'000)->Arg(20'000)
    ->Unit(benchmark::kMillisecond);

/// What an epoch publish spends in the universe: clone it, then apply one
/// web_churn-shaped batch (4 renames, 3 adds, 3 removes). Arg: |U|. The
/// clone shares the source chunks, so the cost should track the batch.
void BM_UniversePublish(benchmark::State& state) {
  static std::map<int64_t, Universe> universes;
  Universe& universe = universes[state.range(0)];
  if (universe.empty()) {
    ScaleConfig config;
    config.num_sources = static_cast<size_t>(state.range(0));
    universe = std::move(GenerateScaleUniverse(config).ValueOrDie().universe);
  }
  const uint32_t stride = static_cast<uint32_t>(universe.size() / 11);
  std::vector<ChurnEvent> batch;
  for (uint32_t e = 0; e < 4; ++e) {
    const Source& s = universe.source((e + 1) * stride);
    batch.push_back(
        ChurnEvent::RenameAttribute(s.name(), 0, s.attribute(0).name + " r"));
  }
  for (uint32_t e = 4; e < 7; ++e) {
    const Source& model = universe.source((e + 1) * stride);
    Source copy(0, "copy." + model.name());
    for (const Attribute& a : model.attributes()) {
      copy.AddAttribute(Attribute(a.name));
    }
    batch.push_back(ChurnEvent::AddSource(std::move(copy)));
  }
  for (uint32_t e = 7; e < 10; ++e) {
    batch.push_back(
        ChurnEvent::RemoveSource(universe.source((e + 1) * stride).name()));
  }
  for (auto _ : state) {
    DeltaUniverse next(universe.Clone());
    ChurnDelta delta;
    MUBE_CHECK(next.ApplyAll(batch, &delta).ok());
    benchmark::DoNotOptimize(next.universe().alive_count());
  }
  state.SetLabel(std::to_string(universe.size()) + " sources");
}
BENCHMARK(BM_UniversePublish)->Arg(5'000)->Arg(50'000)
    ->Unit(benchmark::kMillisecond);

void BM_MediatedQueryScan(benchmark::State& state) {
  const GeneratedUniverse& generated = SharedUniverse();
  static const NGramJaccard jaccard(3);
  static const SimilarityMatrix* const matrix =
      new SimilarityMatrix(generated.universe, jaccard);
  Matcher matcher(generated.universe, *matrix);
  std::vector<uint32_t> subset;
  for (uint32_t i = 0; i < 20; ++i) subset.push_back(i * 7);
  auto match = matcher.Match(subset, MatchOptions());
  MediatedExecutor exec(generated.universe, subset,
                        match.ValueOrDie().schema);
  Query point;
  point.predicates = {{0, CompareOp::kEq, 7}};
  for (auto _ : state) {
    auto result = exec.Execute(point);
    benchmark::DoNotOptimize(result.ok());
  }
}
BENCHMARK(BM_MediatedQueryScan)->Unit(benchmark::kMicrosecond);

// ---------------------------------------------------------------------------
// Raw-speed gate
// ---------------------------------------------------------------------------

struct GateSection {
  const char* name;
  double ref_ms = 0.0;
  double opt_ms = 0.0;
  double speedup = 0.0;
  double bar = 0.0;        // required speedup (0 when not enforced)
  bool bar_enforced = true;
  bool bit_identical = false;
  bool pass = false;
};

/// Best-of-N timing: the minimum is the least-noise estimator for a
/// deterministic workload on a shared machine.
template <typename Fn>
double BestMillis(int runs, Fn&& fn) {
  double best = 0.0;
  for (int r = 0; r < runs; ++r) {
    WallTimer timer;
    fn();
    const double ms = timer.ElapsedMillis();
    if (r == 0 || ms < best) best = ms;
  }
  return best;
}

/// Sketch union/estimate: the optimizer's scoring shape — many candidate
/// source subsets, each a union-cardinality estimate over signatures drawn
/// from one shared pool. Reference = the pre-fusion production path on
/// reference-scalar kernels, per subset: materialize a fresh zeroed merged
/// signature (the old code constructed a PcsaSketch per estimate), OR each
/// member in (k read-modify-write passes), then scan it for the
/// trailing-ones sum. Optimized = PcsaSketch::UnionEstimateBatch's fused,
/// cache-blocked pass (no temporaries; pool words shared across subsets are
/// read from L2 once per block).
GateSection SketchUnionGate(bool quick, bool enforce_bars) {
  GateSection section{"sketch_union_estimate"};
  section.bar = quick ? 2.0 : 4.0;
  section.bar_enforced = enforce_bars;

  const size_t kPoolSize = 24;
  const size_t kSubsets = quick ? 12 : 32;
  const size_t kMembersPerSubset = 8;
  const uint64_t kItemsPerSketch = quick ? 20'000 : 50'000;
  const int reps = quick ? 20 : 50;
  const PcsaConfig config;  // 2048 maps × 8 bytes = one 16 KB signature

  std::vector<PcsaSketch> pool(kPoolSize, PcsaSketch(config));
  std::vector<uint64_t> items(kItemsPerSketch);
  for (size_t s = 0; s < kPoolSize; ++s) {
    for (uint64_t i = 0; i < kItemsPerSketch; ++i) {
      items[i] = (s * kItemsPerSketch + i) * 0x9e3779b97f4a7c15ULL;
    }
    pool[s].AddAll(items);
  }
  Rng rng(23);
  std::vector<std::vector<const PcsaSketch*>> subsets(kSubsets);
  for (std::vector<const PcsaSketch*>& subset : subsets) {
    for (size_t s = 0; s < kMembersPerSubset; ++s) {
      subset.push_back(&pool[rng.Uniform(kPoolSize)]);
    }
  }

  const size_t words = config.num_maps;
  std::vector<double> ref_out(kSubsets, 0.0);
  const double ref_ms = BestMillis(5, [&] {
    for (int r = 0; r < reps; ++r) {
      for (size_t t = 0; t < kSubsets; ++t) {
        std::vector<uint64_t> merged(words, 0);
        for (const PcsaSketch* s : subsets[t]) {
          simd::ref::OrInto(merged.data(), s->bitmaps().data(), words);
        }
        ref_out[t] =
            simd::ref::AllZero(merged.data(), words)
                ? 0.0
                : PcsaSketch::EstimateFromTrailingOnesSum(
                      simd::ref::TrailingOnesSum(merged.data(), words),
                      config);
      }
      benchmark::DoNotOptimize(ref_out.data());
    }
  });

  std::vector<double> opt_out(kSubsets, 0.0);
  const double opt_ms = BestMillis(5, [&] {
    for (int r = 0; r < reps; ++r) {
      PcsaSketch::UnionEstimateBatch(subsets, opt_out);
      benchmark::DoNotOptimize(opt_out.data());
    }
  });

  section.ref_ms = ref_ms;
  section.opt_ms = opt_ms;
  section.speedup = opt_ms > 0.0 ? ref_ms / opt_ms : 0.0;
  section.bit_identical =
      std::memcmp(ref_out.data(), opt_out.data(),
                  kSubsets * sizeof(double)) == 0;
  section.pass = section.bit_identical &&
                 (!enforce_bars || section.speedup >= section.bar);
  return section;
}

/// Gram similarity: all-pairs Jaccard over 3-gram sets of attribute-style
/// names (multi-word, shared vocabulary — the shape the similarity matrix
/// sees after normalization). Reference = the sorted-vector linear merge on
/// the reference-scalar kernel, per pair. Optimized = the registered-gram
/// bitset path, including the per-corpus GramBitsets build in the timing
/// (that is the real cost the matrix build pays once per corpus).
GateSection GramSimilarityGate(bool quick, bool enforce_bars) {
  GateSection section{"gram_similarity"};
  section.bar = quick ? 1.5 : 3.0;
  section.bar_enforced = enforce_bars;

  static const char* const kVocab[] = {
      "publication", "year",     "date",    "title",   "author",  "isbn",
      "price",       "edition",  "format",  "binding", "list",    "name",
      "first",       "last",     "address", "city",    "country", "code",
      "postal",      "phone",    "email",   "id",      "number",  "status",
      "category",    "subject",  "keyword", "series",  "volume",  "issue",
      "page",        "count",    "total",   "amount",  "currency", "rating",
      "review",      "seller",   "vendor",  "store",   "stock",   "quantity",
      "shipping",    "delivery", "order",   "customer", "account", "language",
  };
  constexpr size_t kVocabSize = sizeof(kVocab) / sizeof(kVocab[0]);

  const size_t n = quick ? 400 : 1200;
  NGramJaccard jaccard(3);
  Rng rng(17);
  std::vector<std::vector<uint64_t>> tokens;
  tokens.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    std::string name(kVocab[rng.Uniform(kVocabSize)]);
    name += ' ';
    name += kVocab[rng.Uniform(kVocabSize)];
    name += ' ';
    name += kVocab[rng.Uniform(kVocabSize)];
    tokens.push_back(jaccard.PrepareTokens(name));
  }

  const size_t pairs = n * (n - 1) / 2;
  std::vector<double> ref_out(pairs, 0.0);
  const double ref_ms = BestMillis(3, [&] {
    size_t idx = 0;
    for (size_t i = 0; i < n; ++i) {
      const std::vector<uint64_t>& a = tokens[i];
      for (size_t j = i + 1; j < n; ++j) {
        const std::vector<uint64_t>& b = tokens[j];
        const size_t inter = simd::ref::LinearIntersectionCount(
            a.data(), a.size(), b.data(), b.size());
        ref_out[idx++] = jaccard.SimilarityFromCounts(inter, a.size(),
                                                      b.size());
      }
    }
    benchmark::DoNotOptimize(ref_out.data());
  });

  std::vector<double> opt_out(pairs, 0.0);
  const double opt_ms = BestMillis(3, [&] {
    GramBitsets bitsets(tokens);
    MUBE_CHECK(bitsets.usable());
    size_t idx = 0;
    for (size_t i = 0; i < n; ++i) {
      const size_t size_a = tokens[i].size();
      for (size_t j = i + 1; j < n; ++j) {
        opt_out[idx++] = jaccard.SimilarityFromCounts(
            bitsets.IntersectionSize(i, j), size_a, tokens[j].size());
      }
    }
    benchmark::DoNotOptimize(opt_out.data());
  });

  section.ref_ms = ref_ms;
  section.opt_ms = opt_ms;
  section.speedup = opt_ms > 0.0 ? ref_ms / opt_ms : 0.0;
  section.bit_identical =
      std::memcmp(ref_out.data(), opt_out.data(), pairs * sizeof(double)) == 0;
  section.pass = section.bit_identical &&
                 (!enforce_bars || section.speedup >= section.bar);
  return section;
}

void WriteGateJson(const std::vector<GateSection>& sections, bool quick,
                   bool enforce_bars) {
  std::FILE* f = std::fopen("BENCH_raw_speed.json", "w");
  if (f == nullptr) {
    std::fprintf(stderr, "raw_speed_gate: cannot write BENCH_raw_speed.json\n");
    return;
  }
  std::fprintf(f, "{\n  \"quick\": %s,\n  \"simd_mode\": \"%s\",\n",
               quick ? "true" : "false",
               enforce_bars ? "vector" : "reference");
  std::fprintf(f, "  \"sections\": [\n");
  for (size_t i = 0; i < sections.size(); ++i) {
    const GateSection& s = sections[i];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"ref_ms\": %.4f, \"opt_ms\": %.4f, "
                 "\"speedup\": %.3f, \"bar\": %.2f, \"bar_enforced\": %s, "
                 "\"bit_identical\": %s, \"pass\": %s}%s\n",
                 s.name, s.ref_ms, s.opt_ms, s.speedup, s.bar,
                 s.bar_enforced ? "true" : "false",
                 s.bit_identical ? "true" : "false", s.pass ? "true" : "false",
                 i + 1 < sections.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
}

/// Runs all gate sections; returns 0 iff every section passed.
int RunRawSpeedGate() {
  const bool quick = bench::QuickMode();
#if defined(MUBE_SIMD_OFF)
  // Reference mode: simd::* already forwards to simd::ref::*, so a speedup
  // bar would compare the scalar code with itself. Bit-identity (trivially
  // expected, but it exercises the same assertions) is still checked.
  const bool enforce_bars = false;
#else
  const bool enforce_bars = true;
#endif

  std::vector<GateSection> sections;
  sections.push_back(SketchUnionGate(quick, enforce_bars));
  sections.push_back(GramSimilarityGate(quick, enforce_bars));
  WriteGateJson(sections, quick, enforce_bars);

  bool all_pass = true;
  std::printf("raw_speed_gate (%s%s):\n", quick ? "quick" : "full",
              enforce_bars ? "" : ", MUBE_SIMD=off: bars not enforced");
  for (const GateSection& s : sections) {
    std::printf(
        "  %-24s ref %8.3f ms  opt %8.3f ms  speedup %6.2fx  (bar %.1fx%s)  "
        "bit_identical=%s  %s\n",
        s.name, s.ref_ms, s.opt_ms, s.speedup, s.bar,
        s.bar_enforced ? "" : ", unenforced",
        s.bit_identical ? "yes" : "NO", s.pass ? "PASS" : "FAIL");
    all_pass = all_pass && s.pass;
  }
  if (!all_pass) {
    std::fprintf(stderr, "raw_speed_gate: FAILED\n");
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace mube

int main(int argc, char** argv) {
  bool gate_only = false;
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--raw_speed_gate_only") {
      gate_only = true;
    } else {
      argv[out++] = argv[i];  // strip our flag before benchmark sees it
    }
  }
  argc = out;

  const int gate_rc = mube::RunRawSpeedGate();
  if (gate_rc != 0 || gate_only) return gate_rc;

  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
