#include "core/sequence_graph.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>

#include "geometry/circle_overlap.h"
#include "geometry/turns.h"

namespace c2mn {

namespace {

/// Bitwise equality, so a carried entry is reused only for the exact
/// location it was built around (+0.0 and -0.0 differ here).
bool SameBits(const IndoorPoint& a, const IndoorPoint& b) {
  return a.floor == b.floor &&
         std::memcmp(&a.xy, &b.xy, sizeof(Vec2)) == 0;
}

/// 3-point moving average of the estimates around record i, on the
/// window's majority floor (used when FeatureOptions::smooth_observations
/// is set).
IndoorPoint SmoothedLocation(const PSequence& seq, int i) {
  const int n = static_cast<int>(seq.size());
  const int lo = std::max(0, i - 1);
  const int hi = std::min(n - 1, i + 1);
  Vec2 mean{0, 0};
  // The window holds at most three records, hence at most three distinct
  // non-negative floors — fixed arrays, since this runs per record of
  // every rebuilt sequence graph.
  int floors[3];
  int votes[3];
  int nf = 0;
  for (int j = lo; j <= hi; ++j) {
    mean = mean + seq[j].location.xy;
    const int f = seq[j].location.floor;
    if (f < 0) continue;
    int s = 0;
    while (s < nf && floors[s] != f) ++s;
    if (s == nf) {
      floors[nf] = f;
      votes[nf] = 0;
      ++nf;
    }
    ++votes[s];
  }
  mean = mean / static_cast<double>(hi - lo + 1);
  // Majority floor; ties go to the smallest floor (the order the old
  // dense vote array scanned them in).  No votes keeps the record's own.
  int floor = seq[i].location.floor;
  int best = 0;
  for (int s = 0; s < nf; ++s) {
    if (votes[s] > best || (votes[s] == best && floors[s] < floor)) {
      best = votes[s];
      floor = floors[s];
    }
  }
  return IndoorPoint(mean, floor);
}

}  // namespace

SequenceGraph::SequenceGraph(const World& world, const PSequence& sequence,
                             const FeatureOptions& options,
                             const LabelSequence* inject_truth) {
  Rebuild(world, sequence, options, inject_truth);
}

void SequenceGraph::Rebuild(const World& world, const PSequence& sequence,
                            const FeatureOptions& options,
                            const LabelSequence* inject_truth,
                            const UnrollCarry* carry) {
  world_ = &world;
  sequence_ = &sequence;
  options_ = &options;
  n_ = static_cast<int>(sequence.size());
  assert(n_ > 0);
  BuildCandidates(inject_truth, carry);

  StDbscanInto(sequence, options.dbscan, &dbscan_scratch_, &dbscan_result_);
  density_ = dbscan_result_.classes;

  dt_.resize(n_ - 1);
  de_.resize(n_ - 1);
  speed_.resize(n_ - 1);
  for (int i = 0; i + 1 < n_; ++i) {
    dt_[i] = std::max(1e-6, sequence[i + 1].timestamp - sequence[i].timestamp);
    de_[i] = HorizontalDistance(sequence[i].location,
                                sequence[i + 1].location);
    speed_[i] = de_[i] / dt_[i];
  }
  turn_.assign(n_, 0);
  for (int i = 1; i + 1 < n_; ++i) {
    turn_[i] = IsTurn(sequence[i - 1].location.xy, sequence[i].location.xy,
                      sequence[i + 1].location.xy,
                      options.turn_threshold_deg)
                   ? 1
                   : 0;
  }
  path_prefix_.resize(n_);
  path_prefix_[0] = 0.0;
  for (int i = 1; i < n_; ++i) path_prefix_[i] = path_prefix_[i - 1] + de_[i - 1];
  turn_prefix_.resize(n_ + 1);
  turn_prefix_[0] = 0;
  for (int i = 0; i < n_; ++i) turn_prefix_[i + 1] = turn_prefix_[i] + turn_[i];
}

double SequenceGraph::SpatialMatchOf(const IndoorPoint& location,
                                     RegionId region) const {
  // Eq. 3 generalized across floors: the overlap of the uncertainty disk
  // with the region's partitions, discounted per floor of mismatch,
  // optionally scaled by the normalized historical region frequency.
  const FeatureOptions& opts = *options_;
  const double v = opts.uncertainty_radius_v;
  const double disk_area = M_PI * v * v;
  double overlap = 0.0;
  for (PartitionId pid : world_->plan().region(region).partitions) {
    const Partition& part = world_->plan().partition(pid);
    const double raw =
        CirclePolygonIntersectionArea(location.xy, v, part.shape);
    const size_t dfloor =
        static_cast<size_t>(std::abs(part.floor - location.floor));
    overlap += raw * (dfloor < floor_discount_.size()
                          ? floor_discount_[dfloor]
                          : std::pow(opts.floor_mismatch_discount,
                                     static_cast<int>(dfloor)));
  }
  double value = overlap / disk_area;
  if (opts.use_region_frequency &&
      region < static_cast<RegionId>(opts.region_frequency.size())) {
    value *= opts.region_frequency[region];
  }
  return value;
}

void SequenceGraph::BuildCandidates(const LabelSequence* inject_truth,
                                    const UnrollCarry* carry) {
  const FeatureOptions& opts = *options_;
  // The flat buffers keep their capacity: clear() then append.
  offsets_.resize(n_ + 1);
  candidates_.clear();
  fsm_.clear();
  locations_.resize(n_);
  // Floor gaps on this venue run from 0 to num_floors - 1; a record on an
  // out-of-range floor falls back to pow() in SpatialMatchOf.
  floor_discount_.resize(world_->plan().num_floors());
  for (size_t d = 0; d < floor_discount_.size(); ++d) {
    floor_discount_[d] =
        std::pow(opts.floor_mismatch_discount, static_cast<int>(d));
  }
  // Carried entries hold honest candidates only: a training rebuild,
  // which injects the truth region, recomputes every record.
  const int carried =
      carry != nullptr && inject_truth == nullptr ? std::min(carry->size(), n_)
                                                  : 0;
  records_reused_ = 0;
  for (int i = 0; i < n_; ++i) {
    const IndoorPoint loc = opts.smooth_observations
                                ? SmoothedLocation(*sequence_, i)
                                : (*sequence_)[i].location;
    locations_[i] = loc;
    const size_t first = candidates_.size();
    offsets_[i] = static_cast<int>(first);
    if (i < carried && SameBits(carry->locations_[i], loc)) {
      const int lo = carry->offsets_[i];
      const int hi = carry->offsets_[i + 1];
      candidates_.insert(candidates_.end(), carry->candidates_.begin() + lo,
                         carry->candidates_.begin() + hi);
      fsm_.insert(fsm_.end(), carry->fsm_.begin() + lo,
                  carry->fsm_.begin() + hi);
      ++records_reused_;
      continue;
    }
    // Appends `region` unless record i already has it.
    const auto add = [this, first](RegionId region) {
      if (std::find(candidates_.begin() + first, candidates_.end(), region) ==
          candidates_.end()) {
        candidates_.push_back(region);
      }
    };
    world_->index().NearestRegionsInto(loc, opts.candidate_k,
                                       opts.candidate_max_distance,
                                       &nn_scratch_);
    for (const auto& [region, dist] : nn_scratch_) {
      candidates_.push_back(region);
    }
    if (opts.cross_floor_candidates) {
      for (int df : {-1, 1}) {
        const IndoorPoint shifted(loc.xy, loc.floor + df);
        world_->index().NearestRegionsInto(shifted, opts.cross_floor_k,
                                           opts.cross_floor_max_distance,
                                           &nn_scratch_);
        for (const auto& [region, dist] : nn_scratch_) add(region);
      }
    }
    if (candidates_.size() == first) {
      // Degenerate placement (far outlier): fall back to the globally
      // nearest region on this floor, or region 0.
      const RegionId nearest = world_->index().NearestRegion(loc);
      candidates_.push_back(nearest != kInvalidId ? nearest : 0);
    }
    if (inject_truth != nullptr && inject_truth->regions[i] != kInvalidId) {
      add(inject_truth->regions[i]);
    }
    double fsm_sum = 0.0;
    for (size_t a = first; a < candidates_.size(); ++a) {
      fsm_.push_back(SpatialMatchOf(loc, candidates_[a]));
      fsm_sum += fsm_.back();
    }
    if (opts.normalize_fsm && fsm_sum > 1e-12) {
      for (size_t a = first; a < fsm_.size(); ++a) fsm_[a] /= fsm_sum;
    }
  }
  offsets_[n_] = static_cast<int>(candidates_.size());
}

void UnrollCarry::Clear() {
  locations_.clear();
  offsets_.assign(1, 0);
  candidates_.clear();
  fsm_.clear();
}

void UnrollCarry::Keep(const SequenceGraph& graph, int first) {
  Clear();
  for (int i = first; i < graph.size(); ++i) {
    locations_.push_back(graph.UnrollLocation(i));
    const CandidateSpan cands = graph.Candidates(i);
    candidates_.insert(candidates_.end(), cands.begin(), cands.end());
    for (size_t a = 0; a < cands.size(); ++a) {
      fsm_.push_back(graph.SpatialMatch(i, static_cast<int>(a)));
    }
    offsets_.push_back(static_cast<int>(candidates_.size()));
  }
}

int SequenceGraph::CandidateIndex(int i, RegionId region) const {
  const CandidateSpan cands = Candidates(i);
  const RegionId* it = std::find(cands.begin(), cands.end(), region);
  return it == cands.end() ? -1 : static_cast<int>(it - cands.begin());
}

std::vector<MobilityEvent> SequenceGraph::InitialEvents() const {
  std::vector<MobilityEvent> events;
  InitialEventsInto(&events);
  return events;
}

void SequenceGraph::InitialEventsInto(std::vector<MobilityEvent>* out) const {
  out->resize(n_);
  for (int i = 0; i < n_; ++i) {
    (*out)[i] = density_[i] == DensityClass::kNoise ? MobilityEvent::kPass
                                                    : MobilityEvent::kStay;
  }
}

std::vector<int> SequenceGraph::InitialRegions() const {
  // Candidates are nearest-first, so index 0 is the NN region.
  return std::vector<int>(n_, 0);
}

}  // namespace c2mn
