#ifndef C2MN_CORE_SCORER_H_
#define C2MN_CORE_SCORER_H_

#include <vector>

#include "core/features.h"
#include "core/options.h"

namespace c2mn {

/// \brief Reusable scratch of the batched segmentation scorers, so a
/// long-lived decode workspace makes them allocation-free.
///
/// Beyond the distinct-id buffer it carries the per-sweep label index
/// built by JointScorer::BuildSegIndex: run boundaries of both label
/// chains plus event prefix sums.  The index turns every run-feature
/// evaluation inside RegionSegScores / EventSegScores into O(1) lookups —
/// without it each position re-walked its surrounding runs, which made an
/// ICM sweep over a long stay quadratic in the run length.
struct SegScratch {
  std::vector<RegionId> distinct;
  /// Region label (as RegionId) per position under the indexed labeling.
  std::vector<RegionId> region_ids;
  /// First/last position of the run of equal labels containing i.
  std::vector<int> event_run_start, event_run_end;
  std::vector<int> region_run_start, region_run_end;
  /// stay_prefix[m] = #{x < m : events[x] == kStay}.
  std::vector<int> stay_prefix;
  /// event_trans_prefix[i] = #{x <= i : x > 0, events[x] != events[x-1]}.
  std::vector<int> event_trans_prefix;
};

/// \brief Scores joint (R, E) configurations of a SequenceGraph and
/// exposes the Markov-blanket feature views that drive learning and
/// inference.
///
/// Region labels are candidate indices (r[i] indexes
/// graph.Candidates(i)); run identity is always decided on the underlying
/// RegionId, since different candidate indices at different records can
/// denote the same region.
///
/// The two *NodeFeatures() methods return the feature totals of every
/// clique that involves the given node — matching, the two incident
/// transition and synchronization cliques, and all segmentation cliques
/// whose extent can change when the node's label changes.  The window of
/// recomputed segmentation cliques is label-independent, so differences
/// of these vectors across candidate labels equal differences of
/// TotalFeatures(), which is exactly what Gibbs conditionals,
/// pseudo-likelihood gradients, and ICM deltas require.
class JointScorer {
 public:
  JointScorer(const SequenceGraph& graph, const C2mnStructure& structure)
      : g_(graph), s_(structure) {}

  const SequenceGraph& graph() const { return g_; }
  const C2mnStructure& structure() const { return s_; }

  /// Full feature vector of a complete configuration.
  FeatureVec TotalFeatures(const std::vector<int>& regions,
                           const std::vector<MobilityEvent>& events) const;

  /// w · TotalFeatures.
  double TotalScore(const std::vector<double>& weights,
                    const std::vector<int>& regions,
                    const std::vector<MobilityEvent>& events) const;

  /// Features of all cliques touching region node i if its label were
  /// candidate `a`, other labels as given.
  FeatureVec RegionNodeFeatures(int i, int a, const std::vector<int>& regions,
                                const std::vector<MobilityEvent>& events) const;

  /// Features of all cliques touching event node i if its label were `v`.
  FeatureVec EventNodeFeatures(int i, MobilityEvent v,
                               const std::vector<int>& regions,
                               const std::vector<MobilityEvent>& events) const;

  /// Builds the per-sweep label index in `scratch` (run boundaries of both
  /// chains, event prefix sums).  Must be called with exactly the
  /// labelings later passed to RegionSegScores / EventSegScores; the ICM
  /// overlay loops score every position against frozen labels and only
  /// re-decode afterwards, so one build per sweep suffices.  O(n).
  void BuildSegIndex(const std::vector<int>& regions,
                     const std::vector<MobilityEvent>& events,
                     SegScratch* scratch) const;

  /// Weighted segmentation-clique score (w · f over the f_es / f_ss
  /// templates only) of *every* candidate label of region node i at once,
  /// written to out[0 .. domain(i)).  Bit-identical to dotting
  /// RegionNodeFeatures per candidate, but the event-run is walked once —
  /// only the DISTNUM membership of each candidate differs — and the
  /// region-run restructuring of f_ss is evaluated once per equivalence
  /// class (candidate equals left-neighbor region / right-neighbor region,
  /// at most four classes) instead of once per candidate.  Run bounds,
  /// run features and the region labels come from the BuildSegIndex
  /// tables (which must be current for the labeling being scored, whose
  /// events are `events`), so the cost per position is
  /// O(runs in the affected window), not O(window length) — the scan
  /// version made sweeps over long homogeneous runs quadratic.  This is
  /// the ICM inner loop of the annotator.
  void RegionSegScores(int i, const std::vector<double>& weights,
                       const std::vector<MobilityEvent>& events,
                       SegScratch* scratch, double* out) const;

  /// Weighted segmentation-clique score of both event labels of node i
  /// (out[0] = stay, out[1] = pass); the event-side ICM counterpart.
  /// Requires a current BuildSegIndex in `scratch`, like RegionSegScores.
  void EventSegScores(int i, const std::vector<double>& weights,
                      const std::vector<int>& regions,
                      const std::vector<MobilityEvent>& events,
                      SegScratch* scratch, double out[2]) const;

 private:
  RegionId RegionAt(int x, const std::vector<int>& regions, int override_pos,
                    int override_cand) const {
    const int cand = x == override_pos ? override_cand : regions[x];
    return g_.Candidates(x)[cand];
  }

  /// Run [*s, *e] of equal event labels containing i.
  void EventRun(int i, const std::vector<MobilityEvent>& events, int* s,
                int* e) const;
  /// Run [*s, *e] of equal region labels containing i.
  void RegionRun(int i, const std::vector<int>& regions, int* s, int* e) const;
  /// Label-independent window of region runs whose f_ss cliques can change
  /// when r_i changes: [start of run ending at i-1, end of run starting at
  /// i+1].  Also reports the neighboring run regions (kInvalidId at the
  /// sequence ends).
  void SpaceSegWindow(int i, const std::vector<int>& regions, int* ws, int* we,
                      RegionId* left, RegionId* right) const;
  /// Window of event runs whose f_es cliques can change when e_i changes.
  void EventSegWindow(int i, const std::vector<MobilityEvent>& events, int* ws,
                      int* we) const;
  static MobilityEvent EventAt(int x, const std::vector<MobilityEvent>& events,
                               int override_pos, MobilityEvent override_event) {
    return x == override_pos ? override_event : events[x];
  }

  /// Adds f_es over the event-run decomposition of [from, to].
  void AccumulateEventSegments(int from, int to,
                               const std::vector<int>& regions,
                               const std::vector<MobilityEvent>& events,
                               int r_override_pos, int r_override_cand,
                               int e_override_pos,
                               MobilityEvent e_override_event,
                               FeatureVec* f) const;

  /// Adds f_ss over the region-run decomposition of [from, to].
  void AccumulateSpaceSegments(int from, int to,
                               const std::vector<int>& regions,
                               const std::vector<MobilityEvent>& events,
                               int r_override_pos, int r_override_cand,
                               int e_override_pos,
                               MobilityEvent e_override_event,
                               FeatureVec* f) const;

  const SequenceGraph& g_;
  C2mnStructure s_;
};

}  // namespace c2mn

#endif  // C2MN_CORE_SCORER_H_
