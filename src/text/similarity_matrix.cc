#include "text/similarity_matrix.h"

#include <algorithm>
#include <optional>

#include "common/threading.h"
#include "schema/universe.h"
#include "text/ngram.h"

namespace mube {

SimilarityMatrix::SimilarityMatrix(const Universe& universe,
                                   const SimilarityMeasure& measure,
                                   unsigned threads) {
  Rebuild(universe, measure, threads);
}

void SimilarityMatrix::Rebuild(const Universe& universe,
                               const SimilarityMeasure& measure,
                               unsigned threads) {
  const std::vector<bool> all_dirty(universe.total_attribute_count(), true);
  Recompute(universe, measure, all_dirty, /*old_values=*/{}, /*old_n=*/0,
            threads);
}

void SimilarityMatrix::ApplyChurn(const Universe& universe,
                                  const SimilarityMeasure& measure,
                                  const std::vector<uint32_t>& dirty_sources,
                                  unsigned threads) {
  const size_t new_n = universe.total_attribute_count();
  std::vector<bool> dirty(new_n, false);
  // Attributes appended since the last build have no previous entry.
  for (size_t i = n_; i < new_n; ++i) dirty[i] = true;
  for (uint32_t sid : dirty_sources) {
    const Source& s = universe.source(sid);
    for (uint32_t a = 0; a < s.attribute_count(); ++a) {
      dirty[universe.GlobalAttrIndex(AttributeRef(sid, a))] = true;
    }
  }
  const std::vector<float> old_values = std::move(values_);
  Recompute(universe, measure, dirty, old_values, n_, threads);
}

void SimilarityMatrix::ForEachNeighborAtLeast(size_t i, double theta,
                                              const NeighborFn& fn) const {
  // Dense: scan the whole row. The column part (j < i) reads scattered
  // packed slots, the row part (j > i) is contiguous; both are ascending j.
  for (size_t j = 0; j < i; ++j) {
    const float sim = values_[Offset(j, i)];
    if (static_cast<double>(sim) >= theta) fn(j, sim);
  }
  for (size_t j = i + 1; j < n_; ++j) {
    const float sim = values_[Offset(i, j)];
    if (static_cast<double>(sim) >= theta) fn(j, sim);
  }
}

void SimilarityMatrix::SubsetEdgesAtLeast(
    const std::vector<uint32_t>& attrs, double theta,
    std::vector<SubsetEdge>& edges) const {
  // Row i's slots for j > i form one contiguous packed run, and attrs is
  // ascending, so the inner loop only strides forward through that run.
  for (uint32_t u = 0; u < attrs.size(); ++u) {
    const size_t i = attrs[u];
    for (uint32_t v = u + 1; v < attrs.size(); ++v) {
      const float sim = values_[Offset(i, attrs[v])];
      if (static_cast<double>(sim) >= theta) edges.push_back({u, v, sim});
    }
  }
}

void SimilarityMatrix::Recompute(const Universe& universe,
                                 const SimilarityMeasure& measure,
                                 const std::vector<bool>& dirty_attrs,
                                 const std::vector<float>& old_values,
                                 size_t old_n, unsigned threads) {
  n_ = universe.total_attribute_count();
  values_.assign(n_ * (n_ - 1) / 2, 0.0f);

  // Resolve every global index to (source, liveness, normalized name) once.
  std::vector<uint32_t> source_of(n_);
  std::vector<char> live_of(n_);
  std::vector<const std::string*> name_of(n_);
  for (size_t i = 0; i < n_; ++i) {
    const AttributeRef ref = universe.RefFromGlobalIndex(i);
    source_of[i] = ref.source_id;
    live_of[i] = universe.alive(ref.source_id) ? 1 : 0;
    name_of[i] = &universe.attribute(ref).normalized;
  }

  // Token-based measures tokenize each attribute once instead of once per
  // pair — for the paper's 700-source setting this turns ~9M tokenizations
  // into ~4K.
  const bool prepared = measure.SupportsPreparedTokens();
  std::vector<std::vector<uint64_t>> tokens;
  if (prepared) {
    tokens.reserve(n_);
    for (size_t i = 0; i < n_; ++i) {
      tokens.push_back(measure.PrepareTokens(*name_of[i]));
    }
  }

  // Count-based measures (Jaccard/Dice) get the registered-gram layout:
  // one corpus dictionary, one fixed-width bitset row per attribute, and
  // the pair kernel becomes popcount-over-AND (see text/ngram.h). Counts
  // are exact, so the resulting floats are bit-identical to the
  // sorted-vector path. Falls back automatically when the corpus gram
  // vocabulary is too wide for bitsets to pay off.
  std::optional<GramBitsets> bitsets;
  if (prepared && measure.SupportsSetCounts()) {
    bitsets.emplace(tokens);
    if (!bitsets->usable()) bitsets.reset();
  }

  threads = ResolveThreadCount(threads);
  threads = std::min<unsigned>(
      threads, static_cast<unsigned>(std::max<size_t>(1, n_ / 2)));

  // The previous packed triangle indexed old_n attributes; churn only ever
  // appends attributes, so indexes below old_n are the same attributes.
  auto old_offset = [old_n](size_t i, size_t j) {
    return i * old_n - i * (i + 1) / 2 + (j - i - 1);
  };

  // Worker `t` fills rows t, t+T, t+2T, ... — row i owns the disjoint
  // packed range {Offset(i, j) : j > i}, so writes never collide.
  std::vector<size_t> partial_calls(threads, 0);

  // Column tiling: on the bitset path the inner loop streams row j's words,
  // so bounding the j-range keeps the touched rows (~256 KB of bitset per
  // tile) L2-resident across all of worker t's i-rows instead of streaming
  // the whole corpus through cache once per i. tile width ≥64 keeps the
  // per-tile bookkeeping negligible. The non-bitset path uses one
  // full-width tile — byte-for-byte the original traversal order. Tiling
  // cannot affect results regardless: each (i, j) pair is visited exactly
  // once and its packed slot is written by exactly one worker.
  const size_t tile_cols =
      bitsets ? std::max<size_t>(64, (size_t{256} << 10) / (bitsets->words() * 8))
              : n_;

  auto worker = [&](size_t t) {
    size_t my_calls = 0;
    auto eval_pair = [&](size_t i, size_t j) {
      if (source_of[i] == source_of[j]) return;  // never comparable
      if (!live_of[i] || !live_of[j]) return;    // retired: stays 0
      float sim;
      if (j < old_n && !dirty_attrs[i] && !dirty_attrs[j]) {
        sim = old_values[old_offset(i, j)];  // untouched pair: reuse
      } else if (bitsets) {
        sim = static_cast<float>(measure.SimilarityFromCounts(
            bitsets->IntersectionSize(i, j), tokens[i].size(),
            tokens[j].size()));
        ++my_calls;
      } else {
        sim = static_cast<float>(
            prepared ? measure.SimilarityFromTokens(tokens[i], tokens[j])
                     : measure.Similarity(*name_of[i], *name_of[j]));
        ++my_calls;
      }
      values_[Offset(i, j)] = sim;
    };
    for (size_t jb = 0; jb < n_; jb += tile_cols) {
      const size_t jb_end = std::min(n_, jb + tile_cols);
      for (size_t i = t; i < n_; i += threads) {
        if (i + 1 >= jb_end) continue;  // no j > i in this tile
        for (size_t j = std::max(i + 1, jb); j < jb_end; ++j) {
          eval_pair(i, j);
        }
      }
    }
    partial_calls[t] = my_calls;
  };

  // Stride t is one ParallelFor task; task t writes only partial_calls[t]
  // and row i's disjoint packed range, so the schedule cannot affect a
  // single byte of the result. threads==1 runs the pool's inline serial
  // path. The reduction below happens in fixed index order.
  ThreadPool pool(threads);
  pool.ParallelFor(threads, worker);

  last_measure_calls_ = 0;
  for (size_t calls : partial_calls) last_measure_calls_ += calls;
}

}  // namespace mube
