#ifndef MUBE_PERFBENCH_TRACE_H_
#define MUBE_PERFBENCH_TRACE_H_

#include <array>
#include <cstdint>
#include <set>
#include <vector>

#include "common/status.h"
#include "core/mube.h"
#include "dynamic/churn.h"
#include "opt/problem.h"
#include "serving/snapshot.h"

/// \file trace.h
/// The traced re-solve: one µBE iteration replayed from outside the engine
/// so each layer's time can be read without a span inside src/. The
/// benchmark assembles the iteration's Problem itself from the engine's
/// public matcher() and signatures(), wraps every Qef in a timing
/// decorator, runs the optimizer MakeOptimizer returns with a SearchTrace
/// attached, and then times the layers the decorators cannot see:
///
///  - Match(S) misses happen inside EvaluateSolution, outside any Qef, so
///    Matcher::Match is replayed over the distinct feasible subsets the
///    matching decorator saw (`match_miss_ms`).
///  - The optimizer's own time is measured on a second, memo-warm solve
///    with the same seed: it walks the identical trajectory, every Match(S)
///    is a memo hit, and its wall time minus the decorators' busy time is
///    the optimizer's self time (memo-hit lookups included).
///  - Sketch-union misses are replayed with SignatureCache::EstimateUnion on
///    a memo-cold clone of the engine's signature cache.
///
/// The self times must account for the cold solve's wall time; the
/// remainder is `unattributed_ms`.

namespace mube::perfbench {

/// QEF kinds in MubeConfig order of QefSpec::Kind.
inline constexpr std::array<const char*, 5> kQefKindNames = {
    "matching", "cardinality", "coverage", "redundancy", "characteristic"};

struct SolveTrace {
  SolutionEval solution;
  /// Cold traced solve, wall ms (the optimizer's Run).
  double total_ms = 0.0;
  /// Busy ms per QEF kind on the cold solve (kQefKindNames order).
  std::array<double, 5> qef_busy_ms{};
  double opt_self_ms = 0.0;
  /// Replayed Matcher::Match over the distinct feasible subsets.
  double match_miss_ms = 0.0;
  size_t match_replayed = 0;
  /// MatchQualityQef memo after the cold solve.
  size_t match_hits = 0;
  size_t match_misses = 0;
  size_t evaluations = 0;
  /// Replayed SignatureCache::EstimateUnion on a memo-cold cache.
  double union_miss_ms = 0.0;
  size_t union_replayed = 0;

  double SelfMs() const;
  double UnattributedMs() const { return total_ms - SelfMs(); }
  /// Sums another solve's times and counts into this one.
  void Add(const SolveTrace& other);
};

class Report;

/// Records the solve layers summed in `sum`: opt.self_ms, match.miss_ms,
/// match.busy_ms, match.feasible_ratio, qef.*.busy_ms, sketch.union_miss_us.
void ReportSolveLayers(const SolveTrace& sum, Report* report);

/// Replays `spec` on `engine` as described above. Fails when the spec uses
/// a feature the replay does not model (health feedback) or the solve
/// itself fails.
Result<SolveTrace> TracedSolve(const Mube& engine, const RunSpec& spec);

/// Layer times of one epoch publish replayed step by step off the base
/// epoch: clone → fork → ApplyAll → ApplyDelta, plus the similarity and
/// sketch halves of the fork and the delta timed on their own.
struct PublishReplay {
  double universe_clone_ms = 0.0;
  double fork_ms = 0.0;
  double apply_events_ms = 0.0;
  double apply_delta_ms = 0.0;
  double text_clone_ms = 0.0;
  double text_splice_ms = 0.0;
  double text_splice_calls = 0.0;
  double sketch_churn_ms = 0.0;
  double dirty_sources = 0.0;
  /// The replayed epoch equals the published one (sizes and the rows of
  /// `slice`).
  bool matches_published = true;

  double PartsMs() const {
    return universe_clone_ms + fork_ms + apply_events_ms + apply_delta_ms;
  }
  void Add(const PublishReplay& other);
};

/// Replays the publish that turned `base` into `published` with `batch`.
PublishReplay ReplayPublish(const SnapshotManager::Lease& base,
                            const SnapshotManager::Lease& published,
                            const std::vector<ChurnEvent>& batch,
                            const std::vector<size_t>& slice);

/// Global attribute indexes worth comparing after churn: every attribute
/// of the `touched` sources plus an even stride over the universe.
std::vector<size_t> SampleSlice(const Universe& universe,
                                const std::set<uint32_t>& touched,
                                size_t stride_samples);

/// True iff both stores hold the same neighbour rows, bit for bit, for
/// every attribute in `slice`.
bool SameRows(const SimilaritySource& a, const SimilaritySource& b,
              const std::vector<size_t>& slice);

/// True iff two answers are bit-identical: same sources, same schema, and
/// every quality value equal as a double.
bool SameAnswer(const SolutionEval& a, const SolutionEval& b);

}  // namespace mube::perfbench

#endif  // MUBE_PERFBENCH_TRACE_H_
