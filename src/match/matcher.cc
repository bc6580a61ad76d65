#include "match/matcher.h"

#include <algorithm>
#include <unordered_set>
#include <utility>

#include "common/logging.h"
#include "schema/universe.h"

namespace mube {

namespace {

/// End of a member chain.
constexpr uint32_t kNone = UINT32_MAX;

/// One cluster of Algorithm 1: a candidate GA plus the bookkeeping flags the
/// algorithm uses across iterations. Members are local attribute ids chained
/// through the Match call's `next` array (head → ... → tail, in merge order),
/// so a merge splices two chains and allocates nothing.
struct Cluster {
  uint32_t head = kNone;
  uint32_t tail = kNone;
  uint32_t size = 0;
  bool keep = false;        ///< Came from a GA constraint; never eliminated.
  bool merged = false;      ///< Consumed by a merge this iteration.
  bool merge_cand = false;  ///< Had a viable partner that merged elsewhere.
  bool newly_merged = false;  ///< Produced by a merge this iteration.
  bool alive = true;          ///< Still under consideration.
};

/// S's attributes under local ids: their positions in S's global attribute
/// indexes, ascending. Everything is sized by S, never by the universe.
struct LocalAttrs {
  std::vector<uint32_t> global;  ///< local id → global attribute index
  std::vector<uint32_t> source;  ///< local id → position of its source in S
  std::vector<uint32_t> next;    ///< local id → next member of its cluster

  template <typename Fn>
  void ForEachMember(const Cluster& c, Fn fn) const {
    for (uint32_t a = c.head; a != kNone; a = next[a]) fn(a);
  }
};

/// Appends `b`'s member chain to `a`'s.
void Splice(LocalAttrs& local, Cluster& a, const Cluster& b) {
  if (b.size == 0) return;
  if (a.head == kNone) {
    a.head = b.head;
  } else {
    local.next[a.tail] = b.head;
  }
  a.tail = b.tail;
  a.size += b.size;
}

/// Merge validity (Definition 1): no source contributes to both clusters.
/// `stamps` is a per-call scratch over S's sources; `stamp` must be fresh.
bool SourcesDisjoint(const LocalAttrs& local, const Cluster& a,
                     const Cluster& b, std::vector<uint32_t>& stamps,
                     uint32_t stamp) {
  local.ForEachMember(a, [&](uint32_t m) { stamps[local.source[m]] = stamp; });
  bool disjoint = true;
  local.ForEachMember(b, [&](uint32_t m) {
    if (stamps[local.source[m]] == stamp) disjoint = false;
  });
  return disjoint;
}

/// Similarity between two clusters under ClusterLinkage::kAverage: the mean
/// over cross pairs, computed exactly via At() since the sub-θ pairs count
/// too. (The paper's max linkage (§3) — "the maximum similarity between an
/// attribute from the first cluster and an attribute from the second
/// cluster" — needs no such pass: every cross pair ≥ θ is in the θ-graph.)
double AverageSimilarity(const SimilaritySource& sim, const LocalAttrs& local,
                         const Cluster& a, const Cluster& b) {
  double sum = 0.0;
  local.ForEachMember(a, [&](uint32_t i) {
    local.ForEachMember(b, [&](uint32_t j) {
      sum += sim.At(local.global[i], local.global[j]);
    });
  });
  return sum / static_cast<double>(size_t{a.size} * b.size);
}

/// Max pairwise similarity *within* a cluster — the per-GA quality measure.
double IntraClusterQuality(const SimilaritySource& sim,
                           const LocalAttrs& local, const Cluster& c) {
  double best = 0.0;
  local.ForEachMember(c, [&](uint32_t i) {
    for (uint32_t j = local.next[i]; j != kNone; j = local.next[j]) {
      best = std::max(best, sim.At(local.global[i], local.global[j]));
    }
  });
  return best;
}

/// A live cluster pair (c1 < c2) that clears θ, with its cluster similarity.
struct ScoredPair {
  double similarity;
  uint32_t c1;
  uint32_t c2;
};

/// Line 8's "best first": higher similarity, ties toward smaller ids. A
/// total order, since each (c1, c2) occurs once per pass, so sorting by it
/// yields exactly the pop order of a max-heap on the same key.
bool BestFirst(const ScoredPair& a, const ScoredPair& b) {
  if (a.similarity != b.similarity) return a.similarity > b.similarity;
  if (a.c1 != b.c1) return a.c1 < b.c1;
  return a.c2 < b.c2;
}

}  // namespace

Matcher::Matcher(const Universe& universe, const SimilaritySource& similarity)
    : universe_(universe), similarity_(similarity) {}

Result<MatchResult> Matcher::Match(
    const std::vector<uint32_t>& source_ids, const MatchOptions& options,
    const std::vector<uint32_t>& source_constraints,
    const MediatedSchema& ga_constraints) const {
  // ---- Input validation -------------------------------------------------
  if (options.theta < 0.0 || options.theta > 1.0) {
    return Status::InvalidArgument("theta must be in [0, 1]");
  }
  if (options.theta < similarity_.neighbor_floor()) {
    return Status::InvalidArgument(
        "theta " + std::to_string(options.theta) +
        " is below the similarity source's neighbor floor " +
        std::to_string(similarity_.neighbor_floor()) +
        "; a sparse index cannot enumerate pairs under its index_theta — "
        "rebuild it with a lower SparseIndexOptions::index_theta");
  }
  std::unordered_set<uint32_t> in_s;
  for (uint32_t sid : source_ids) {
    if (sid >= universe_.size()) {
      return Status::InvalidArgument("source id out of range: " +
                                     std::to_string(sid));
    }
    if (!in_s.insert(sid).second) {
      return Status::InvalidArgument("duplicate source id in S: " +
                                     std::to_string(sid));
    }
  }
  for (uint32_t sid : source_constraints) {
    if (in_s.count(sid) == 0) {
      return Status::InvalidArgument(
          "source constraint " + std::to_string(sid) +
          " is not in S; callers must ensure C subset-of S");
    }
  }
  if (!ga_constraints.IsWellFormed() && !ga_constraints.empty()) {
    return Status::InvalidArgument("GA constraints are not well-formed");
  }
  for (const GlobalAttribute& g : ga_constraints.gas()) {
    for (const AttributeRef& ref : g.members()) {
      if (!universe_.Contains(ref)) {
        return Status::InvalidArgument("GA constraint references unknown " +
                                       ref.ToString());
      }
      if (in_s.count(ref.source_id) == 0) {
        return Status::InvalidArgument(
            "GA constraint references source " +
            std::to_string(ref.source_id) + " outside S");
      }
    }
  }

  // ---- The θ-graph of S -------------------------------------------------
  // Global attribute indexes run in source-id order, so walking S sorted
  // yields the local ids in ascending global order.
  std::vector<uint32_t> sorted_ids(source_ids);
  std::sort(sorted_ids.begin(), sorted_ids.end());
  LocalAttrs local;
  for (uint32_t pos = 0; pos < sorted_ids.size(); ++pos) {
    const uint32_t sid = sorted_ids[pos];
    for (uint32_t a = 0; a < universe_.source(sid).attribute_count(); ++a) {
      local.global.push_back(static_cast<uint32_t>(
          universe_.GlobalAttrIndex(AttributeRef(sid, a))));
      local.source.push_back(pos);
    }
  }
  const size_t k = local.global.size();
  local.next.assign(k, kNone);
  auto local_of = [&local](size_t gidx) {
    return static_cast<uint32_t>(
        std::lower_bound(local.global.begin(), local.global.end(), gidx) -
        local.global.begin());
  };

  // One enumeration of the pairs >= θ inside S, as symmetric CSR adjacency:
  // the source lists each pair once, and it is filed under both endpoints.
  std::vector<SimilaritySource::SubsetEdge> edges;
  similarity_.SubsetEdgesAtLeast(local.global, options.theta, edges);
  std::vector<uint32_t> adj_offsets(k + 1, 0);
  for (const auto& e : edges) {
    ++adj_offsets[e.from + 1];
    ++adj_offsets[e.to + 1];
  }
  for (size_t u = 0; u < k; ++u) adj_offsets[u + 1] += adj_offsets[u];
  std::vector<uint32_t> adj_to(2 * edges.size());
  std::vector<float> adj_sim(2 * edges.size());
  {
    std::vector<uint32_t> cursor(adj_offsets.begin(), adj_offsets.end() - 1);
    for (const auto& e : edges) {
      uint32_t slot = cursor[e.from]++;
      adj_to[slot] = e.to;
      adj_sim[slot] = e.similarity;
      slot = cursor[e.to]++;
      adj_to[slot] = e.from;
      adj_sim[slot] = e.similarity;
    }
  }

  // ---- Initialization (Algorithm 1, lines 1-4) ---------------------------
  std::vector<Cluster> clusters;
  std::vector<char> constrained(k, 0);  // local ids that are members of G
  auto singleton = [](uint32_t a) {
    Cluster c;
    c.head = a;
    c.tail = a;
    c.size = 1;
    return c;
  };

  for (const GlobalAttribute& g : ga_constraints.gas()) {
    Cluster c;
    c.keep = true;
    for (const AttributeRef& ref : g.members()) {
      const uint32_t a = local_of(universe_.GlobalAttrIndex(ref));
      Splice(local, c, singleton(a));
      constrained[a] = 1;
    }
    clusters.push_back(c);
  }

  for (uint32_t sid : source_ids) {
    const uint32_t count = universe_.source(sid).attribute_count();
    if (count == 0) continue;
    const uint32_t first =
        local_of(universe_.GlobalAttrIndex(AttributeRef(sid, 0)));
    for (uint32_t a = first; a < first + count; ++a) {
      if (!constrained[a]) clusters.push_back(singleton(a));
    }
  }

  // Clusters frozen out of consideration but already representing a GA
  // (grew to >= 2 members, then ran out of viable partners).
  std::vector<Cluster> frozen;

  // Local attribute id → live-cluster index, refreshed each pass.
  std::vector<uint32_t> cluster_of(k, kNone);
  std::vector<uint32_t> source_stamps(sorted_ids.size(), 0);
  uint32_t stamp = 0;
  std::vector<float> best;       // per pass: cluster → max similarity to i
  std::vector<uint32_t> owner;   // per pass: cluster → the i that set best
  std::vector<uint32_t> partners;
  std::vector<ScoredPair> scored;

  // ---- Main loop (Algorithm 1, lines 5-23) -------------------------------
  bool done = false;
  while (!done) {
    done = true;
    for (Cluster& c : clusters) {
      c.merged = false;
      c.merge_cand = false;
      c.newly_merged = false;
    }

    // Line 8: all live cluster pairs with similarity >= theta, best first.
    // Candidate pairs come from the θ-graph rather than a k² cluster-pair
    // scan: under either linkage a cluster pair can only reach θ if some
    // cross attribute pair does (max ≥ average), so the candidate set — and
    // with it the merge order — is identical to the exhaustive scan whenever
    // enumeration is complete (θ ≥ the source's neighbor floor, validated
    // above).
    std::fill(cluster_of.begin(), cluster_of.end(), kNone);
    for (uint32_t i = 0; i < clusters.size(); ++i) {
      local.ForEachMember(clusters[i], [&](uint32_t a) { cluster_of[a] = i; });
    }
    // One entry per cluster pair (c1 < c2) holding its max cross
    // similarity, gathered from c1's side into a per-pass accumulator
    // indexed by c2. kMax: every cross pair ≥ θ is in the graph, so that max
    // IS the cluster similarity. kAverage: the graph only nominates the pair.
    const uint32_t live = static_cast<uint32_t>(clusters.size());
    best.assign(live, 0.0f);
    owner.assign(live, kNone);
    scored.clear();
    for (uint32_t i = 0; i < live; ++i) {
      partners.clear();
      local.ForEachMember(clusters[i], [&](uint32_t a) {
        for (uint32_t e = adj_offsets[a]; e < adj_offsets[a + 1]; ++e) {
          const uint32_t j = cluster_of[adj_to[e]];
          if (j == kNone || j <= i) continue;
          if (owner[j] != i) {
            owner[j] = i;
            best[j] = adj_sim[e];
            partners.push_back(j);
          } else {
            best[j] = std::max(best[j], adj_sim[e]);
          }
        }
      });
      for (uint32_t j : partners) {
        const double s =
            options.linkage == ClusterLinkage::kMax
                ? static_cast<double>(best[j])
                : AverageSimilarity(similarity_, local, clusters[i],
                                    clusters[j]);
        if (s >= options.theta) scored.push_back(ScoredPair{s, i, j});
      }
    }
    std::sort(scored.begin(), scored.end(), BestFirst);

    // Lines 9-19.
    for (const ScoredPair& pair : scored) {
      Cluster& c1 = clusters[pair.c1];
      Cluster& c2 = clusters[pair.c2];
      if (!c1.merged && !c2.merged) {
        if (SourcesDisjoint(local, c1, c2, source_stamps, ++stamp)) {
          // Merge c1 and c2 into a new cluster (lines 13-14).
          Cluster merged;
          merged.keep = c1.keep || c2.keep;
          merged.newly_merged = true;
          Splice(local, merged, c1);
          Splice(local, merged, c2);
          c1.merged = true;
          c1.alive = false;
          c2.merged = true;
          c2.alive = false;
          clusters.push_back(merged);
          // The merged cluster may itself have viable partners; another
          // pass is required ("until no more pairs to merge").
          done = false;
        }
        // An invalid (source-overlapping) pair is simply skipped; overlap
        // can never disappear, so it is not a reason to re-iterate.
      } else if (c1.merged != c2.merged) {
        // Lines 15-19: exactly one endpoint was consumed by an earlier
        // merge this iteration; the other endpoint keeps its seat for the
        // next iteration.
        Cluster& survivor = c1.merged ? c2 : c1;
        survivor.merge_cand = true;
        done = false;
      }
    }

    // Lines 20-22: prune clusters that can no longer participate. A pruned
    // cluster that already represents a matching (>= 2 attributes) is a
    // finished GA and moves to the output set; pruned singletons vanish.
    for (Cluster& c : clusters) {
      if (!c.alive) continue;
      if (c.newly_merged || c.merge_cand || c.keep) continue;
      c.alive = false;
      if (c.size >= 2) frozen.push_back(c);
    }

    // Compact the working set, keeping the survivors' relative order (the
    // next pass's cluster indexes, and with them its tie-breaks).
    clusters.erase(std::remove_if(clusters.begin(), clusters.end(),
                                  [](const Cluster& c) { return !c.alive; }),
                   clusters.end());
  }

  // Survivors of the final iteration: keep clusters, and any cluster with
  // >= 2 members (they were retained as merge candidates or just merged).
  for (const Cluster& c : clusters) {
    if (c.keep || c.size >= 2) frozen.push_back(c);
  }

  // ---- Assemble M and apply the beta constraint --------------------------
  MatchResult result;
  for (const Cluster& c : frozen) {
    if (!c.keep && c.size < std::max<size_t>(options.beta, 2)) {
      continue;  // beta bound applies only to non-constraint GAs (§2.5)
    }
    std::vector<AttributeRef> members;
    members.reserve(c.size);
    local.ForEachMember(c, [&](uint32_t a) {
      members.push_back(universe_.RefFromGlobalIndex(local.global[a]));
    });
    GlobalAttribute ga(std::move(members));
    MUBE_DCHECK(ga.IsValid());
    result.ga_quality.push_back(IntraClusterQuality(similarity_, local, c));
    result.schema.Add(std::move(ga));
  }

  // ---- Feasibility: M must be valid on C (line 24) ------------------------
  result.feasible = result.schema.IsValidOn(source_constraints);
  if (!result.feasible) {
    return MatchResult{};  // NULL schema, 0 quality
  }

  if (!result.schema.empty()) {
    double sum = 0.0;
    for (double q : result.ga_quality) sum += q;
    result.quality = sum / static_cast<double>(result.ga_quality.size());
  }
  return result;
}

}  // namespace mube
