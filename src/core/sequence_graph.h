#ifndef C2MN_CORE_SEQUENCE_GRAPH_H_
#define C2MN_CORE_SEQUENCE_GRAPH_H_

#include <vector>

#include "clustering/st_dbscan.h"
#include "core/options.h"
#include "data/labels.h"
#include "indoor/region_index.h"
#include "sim/world.h"

namespace c2mn {

class SequenceGraph;

/// \brief A read-only view of one record's candidate regions: contiguous,
/// nearest first.
class CandidateSpan {
 public:
  CandidateSpan(const RegionId* begin, const RegionId* end)
      : begin_(begin), end_(end) {}
  const RegionId* begin() const { return begin_; }
  const RegionId* end() const { return end_; }
  size_t size() const { return static_cast<size_t>(end_ - begin_); }
  bool empty() const { return begin_ == end_; }
  RegionId operator[](size_t a) const { return begin_[a]; }

 private:
  const RegionId* begin_;
  const RegionId* end_;
};

/// \brief Per-record unroll output (candidates and f_sm) carried from one
/// SequenceGraph::Rebuild to the next over overlapping windows.
///
/// A record's candidate set and f_sm values depend only on its smoothed
/// location, the world and the feature options, never on the rest of the
/// window.  A streaming session that re-decodes a sliding window keeps
/// them for the records that stay in the window, and the next Rebuild
/// reuses entry i for record i whenever that record's smoothed location
/// is bitwise unchanged (a window-edge record whose smoothing neighbours
/// changed is recomputed).  Valid only across rebuilds with the same
/// world and feature options.
class UnrollCarry {
 public:
  /// Number of carried records; entry i describes record i of the next
  /// window.
  int size() const { return static_cast<int>(locations_.size()); }
  void Clear();
  /// Replaces the carry with records [first, graph.size()) of `graph`.
  /// Allocation-free once the buffers have grown to their steady size.
  void Keep(const SequenceGraph& graph, int first);

 private:
  friend class SequenceGraph;
  /// Entry j: locations_[j], and candidates / f_sm in the flat range
  /// [offsets_[j], offsets_[j + 1]).
  std::vector<IndoorPoint> locations_;
  std::vector<int> offsets_;
  std::vector<RegionId> candidates_;
  std::vector<double> fsm_;
};

/// \brief The unrolled C2MN over one p-sequence: per-record candidate
/// label domains plus every observation-derived quantity the feature
/// functions consume, precomputed once.
///
/// Region labels are represented as indices into each record's candidate
/// set (the k nearest regions, like the paper's R-tree-assisted feature
/// extraction); event labels use MobilityEvent directly.
class SequenceGraph {
 public:
  /// Builds the graph.  When `inject_truth` is non-null (training), each
  /// record's ground-truth region is force-included in its candidate set
  /// so empirical feature values are always defined; inference passes
  /// nullptr and works with honest candidates only.
  SequenceGraph(const World& world, const PSequence& sequence,
                const FeatureOptions& options,
                const LabelSequence* inject_truth);

  /// An empty graph to be filled by Rebuild(); every accessor requires a
  /// successful Rebuild first.  Lets a streaming workspace keep one graph
  /// alive across decodes so candidate/feature buffers reuse capacity.
  SequenceGraph() = default;

  /// (Re)builds the graph in place, reusing previously grown storage.
  /// Identical output to constructing a fresh graph, but a warmed-up
  /// instance rebuilds without heap allocations.  Keeps pointers to
  /// `sequence` and `options` — they must outlive the next Rebuild().
  /// A `carry` from the previous overlapping window supplies the
  /// candidates and f_sm of every record whose smoothed location it
  /// matches bitwise; it is ignored when `inject_truth` is set.
  void Rebuild(const World& world, const PSequence& sequence,
               const FeatureOptions& options,
               const LabelSequence* inject_truth,
               const UnrollCarry* carry = nullptr);

  /// The graph keeps pointers to `sequence` and `options`; binding them to
  /// temporaries would dangle, so those overloads are rejected.
  SequenceGraph(const World&, PSequence&&, const FeatureOptions&,
                const LabelSequence*) = delete;
  SequenceGraph(const World&, const PSequence&, FeatureOptions&&,
                const LabelSequence*) = delete;
  void Rebuild(const World&, PSequence&&, const FeatureOptions&,
               const LabelSequence*) = delete;
  void Rebuild(const World&, const PSequence&, FeatureOptions&&,
               const LabelSequence*) = delete;

  int size() const { return n_; }
  const PSequence& sequence() const { return *sequence_; }
  const World& world() const { return *world_; }
  const FeatureOptions& options() const { return *options_; }

  /// Candidate regions of record i (non-empty), nearest first.
  CandidateSpan Candidates(int i) const {
    return CandidateSpan(candidates_.data() + offsets_[i],
                         candidates_.data() + offsets_[i + 1]);
  }
  /// f_sm value of candidate a at record i (pre-computed, Eq. 3).
  double SpatialMatch(int i, int a) const { return fsm_[offsets_[i] + a]; }
  /// Index of `region` in record i's candidates, or -1.
  int CandidateIndex(int i, RegionId region) const;
  /// The location record i's candidates and f_sm were built around (the
  /// smoothed estimate when FeatureOptions::smooth_observations is set).
  const IndoorPoint& UnrollLocation(int i) const { return locations_[i]; }
  /// Records whose candidates and f_sm the last Rebuild took from its
  /// carry instead of computing them.
  int records_reused() const { return records_reused_; }

  /// θ_i.D: st-DBSCAN density class over the whole p-sequence.
  DensityClass Density(int i) const { return density_[i]; }
  /// Elapsed seconds between records i and i+1.
  double DeltaT(int i) const { return dt_[i]; }
  /// Euclidean (horizontal) distance between records i and i+1.
  double DeltaE(int i) const { return de_[i]; }
  /// Observed speed between records i and i+1 (m/s).
  double Speed(int i) const { return speed_[i]; }
  /// Whether the heading change at record i exceeds the turn threshold.
  bool Turn(int i) const { return turn_[i] != 0; }

  /// Euclidean path length over the run [i, j] (the sum of DeltaE(x) for
  /// x in [i, j)), O(1) via prefix sums.  The segmentation features call
  /// this once per counterfactual candidate, so it must not re-walk runs.
  double PathLength(int i, int j) const {
    return path_prefix_[j] - path_prefix_[i];
  }
  /// Number of turn records strictly inside (i, j), O(1) via prefix sums.
  int InteriorTurns(int i, int j) const {
    return j - i < 2 ? 0 : turn_prefix_[j] - turn_prefix_[i + 1];
  }

  /// The st-DBSCAN-based initial event configuration of Algorithm 1
  /// line 1: noise points are pass, core/border points are stay.
  std::vector<MobilityEvent> InitialEvents() const;
  /// InitialEvents into a caller-owned vector (allocation-free once the
  /// vector has capacity; used by the streaming decode workspace).
  void InitialEventsInto(std::vector<MobilityEvent>* out) const;
  /// Nearest-region initial configuration (candidate indices), used by
  /// the C2MN@R variant (first-configure R).
  std::vector<int> InitialRegions() const;

 private:
  void BuildCandidates(const LabelSequence* inject_truth,
                       const UnrollCarry* carry);
  /// f_sm (Eq. 3) of `region` for a record at `location`.
  double SpatialMatchOf(const IndoorPoint& location, RegionId region) const;

  const World* world_ = nullptr;
  const PSequence* sequence_ = nullptr;
  const FeatureOptions* options_ = nullptr;
  int n_ = 0;

  /// Every record's candidates and f_sm values, flat: record i owns
  /// [offsets_[i], offsets_[i + 1]).  One buffer per quantity keeps a
  /// cold build to a few allocations and a warm rebuild to none.
  std::vector<int> offsets_;
  std::vector<RegionId> candidates_;
  std::vector<double> fsm_;
  std::vector<IndoorPoint> locations_;
  int records_reused_ = 0;
  std::vector<DensityClass> density_;
  std::vector<double> dt_, de_, speed_;
  std::vector<uint8_t> turn_;
  std::vector<double> path_prefix_;  ///< [n]; path_prefix_[i] = Σ de_[x<i].
  std::vector<int> turn_prefix_;     ///< [n+1]; turn_prefix_[m] = Σ turn_[x<m].

  /// Rebuild-only working memory, kept to make rebuilds allocation-free.
  std::vector<RegionIndex::RegionDistance> nn_scratch_;
  /// floor_discount_[d] = pow(floor_mismatch_discount, d) for the floor
  /// gaps the venue can have, so f_sm pays no pow() per partition.
  std::vector<double> floor_discount_;
  StDbscanScratch dbscan_scratch_;
  StDbscanResult dbscan_result_;
};

}  // namespace c2mn

#endif  // C2MN_CORE_SEQUENCE_GRAPH_H_
