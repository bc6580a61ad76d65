#include "match/naive_matcher.h"

#include <algorithm>
#include <numeric>
#include <unordered_map>

#include "common/det.h"
#include "schema/universe.h"

namespace mube {

namespace {
/// Plain union-find with path compression over local indexes.
class UnionFind {
 public:
  explicit UnionFind(size_t n) : parent_(n) {
    std::iota(parent_.begin(), parent_.end(), 0);
  }
  size_t Find(size_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  void Union(size_t a, size_t b) { parent_[Find(a)] = Find(b); }

 private:
  std::vector<size_t> parent_;
};
}  // namespace

NaiveMatchResult NaiveComponentsMatch(
    const Universe& universe, const SimilaritySource& similarity,
    const std::vector<uint32_t>& source_ids, double theta) {
  // Collect the global attribute indexes of S.
  std::vector<size_t> attrs;
  for (uint32_t sid : source_ids) {
    const Source& source = universe.source(sid);
    for (uint32_t a = 0; a < source.attribute_count(); ++a) {
      attrs.push_back(universe.GlobalAttrIndex(AttributeRef(sid, a)));
    }
  }

  UnionFind uf(attrs.size());
  if (theta >= similarity.neighbor_floor()) {
    // The θ-graph of S: its edges are exactly the pairs ≥ theta, so the
    // components match the exhaustive scan (up to candidate recall on a
    // sparse index). The source wants S's attributes ascending; `order`
    // maps those sorted positions back to positions in `attrs`.
    std::vector<uint32_t> order(attrs.size());
    std::iota(order.begin(), order.end(), 0u);
    std::sort(order.begin(), order.end(),
              [&](uint32_t a, uint32_t b) { return attrs[a] < attrs[b]; });
    std::vector<uint32_t> sorted(attrs.size());
    for (size_t p = 0; p < order.size(); ++p) {
      sorted[p] = static_cast<uint32_t>(attrs[order[p]]);
    }
    std::vector<SimilaritySource::SubsetEdge> edges;
    similarity.SubsetEdgesAtLeast(sorted, theta, edges);
    for (const SimilaritySource::SubsetEdge& e : edges) {
      uf.Union(order[e.from], order[e.to]);
    }
  } else {
    // Below the floor a sparse index cannot enumerate; exhaustive At() is
    // exact on every implementation (the sparse fallback recomputes).
    for (size_t i = 0; i < attrs.size(); ++i) {
      for (size_t j = i + 1; j < attrs.size(); ++j) {
        if (similarity.At(attrs[i], attrs[j]) >= theta) uf.Union(i, j);
      }
    }
  }

  std::unordered_map<size_t, std::vector<size_t>> components;
  for (size_t i = 0; i < attrs.size(); ++i) {
    components[uf.Find(i)].push_back(i);
  }

  NaiveMatchResult result;
  double quality_sum = 0.0;
  // Deterministic output order: components enumerated by sorted root
  // (never hash order), then GAs ordered by smallest member.
  std::vector<const std::vector<size_t>*> ordered;
  for (const size_t root : det::SortedKeys(components)) {
    const std::vector<size_t>& members = components.at(root);
    if (members.size() >= 2) ordered.push_back(&members);
  }
  std::sort(ordered.begin(), ordered.end(),
            [&](const std::vector<size_t>* a, const std::vector<size_t>* b) {
              return attrs[a->front()] < attrs[b->front()];
            });

  for (const std::vector<size_t>* members : ordered) {
    std::vector<AttributeRef> refs;
    double best = 0.0;
    for (size_t li : *members) {
      refs.push_back(universe.RefFromGlobalIndex(attrs[li]));
      for (size_t lj : *members) {
        if (li < lj) {
          best = std::max(best, similarity.At(attrs[li], attrs[lj]));
        }
      }
    }
    GlobalAttribute ga(std::move(refs));
    if (!ga.IsValid()) ++result.invalid_gas;
    quality_sum += best;
    result.schema.Add(std::move(ga));
  }
  if (!result.schema.empty()) {
    result.quality =
        quality_sum / static_cast<double>(result.schema.size());
  }
  return result;
}

}  // namespace mube
