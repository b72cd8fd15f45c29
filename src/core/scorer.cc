#include "core/scorer.h"

#include <algorithm>
#include <cassert>

#include "common/math_utils.h"

namespace c2mn {

namespace {

/// features::SpaceSegmentation over [s, e] evaluated from the index
/// tables instead of a scan.  All intermediates (stay count, transition
/// count) are integers recovered exactly from the prefix sums, so every
/// derived double matches the scan version bitwise.  The event override
/// adjusts the counts locally: the stay count at override_pos and the two
/// transition pairs (op-1, op), (op, op+1) are the only terms that can
/// differ.  Valid only while the events the index was built from are
/// unchanged (the ICM loops freeze them for a whole sweep).
std::array<double, 3> IndexedSpaceSeg(const SegScratch& sc,
                                      const std::vector<MobilityEvent>& events,
                                      int n, int s, int e, int override_pos,
                                      MobilityEvent override_event) {
  auto event_at = [&](int x) {
    return x == override_pos ? override_event : events[x];
  };
  int stays = sc.stay_prefix[e + 1] - sc.stay_prefix[s];
  int transitions = sc.event_trans_prefix[e] - sc.event_trans_prefix[s];
  if (override_pos >= s && override_pos <= e) {
    stays += (override_event == MobilityEvent::kStay ? 1 : 0) -
             (events[override_pos] == MobilityEvent::kStay ? 1 : 0);
    for (const int x : {override_pos, override_pos + 1}) {
      if (x > s && x <= e) {
        transitions += (event_at(x) != event_at(x - 1) ? 1 : 0) -
                       (events[x] != events[x - 1] ? 1 : 0);
      }
    }
  }
  const double distinct_norm = (stays > 0 && stays < e - s + 1) ? 1.0 : 0.0;
  const double trans_norm =
      std::min(1.0, transitions / features::internal::kSegmentScale);
  double boundary = 0.0;
  double boundary_slots = 0.0;
  if (s > 0) {
    boundary += PassIndicator(event_at(s));
    boundary_slots += 1.0;
  }
  if (e + 1 < n) {
    boundary += PassIndicator(event_at(e));
    boundary_slots += 1.0;
  }
  const double boundary_norm =
      boundary_slots > 0 ? boundary / boundary_slots : 0.0;
  return {-distinct_norm, -trans_norm, boundary_norm};
}

/// End of the maximal run of equal region ids starting at x within
/// [x, hi], under an optional single-position override.  Advances by whole
/// stored runs (clipped at the override position), so the cost is
/// O(runs crossed), matching the decomposition of a linear scan exactly.
int RegionRunEndWithOverride(const SegScratch& sc, int x, int hi,
                             int override_pos, RegionId override_id) {
  const RegionId id =
      x == override_pos ? override_id : sc.region_ids[x];
  int e = x;
  while (e < hi) {
    const int nx = e + 1;
    const RegionId nid =
        nx == override_pos ? override_id : sc.region_ids[nx];
    if (nid != id) break;
    if (nx == override_pos) {
      e = nx;
      continue;
    }
    int jump = std::min(hi, sc.region_run_end[nx]);
    if (override_pos > nx && override_pos <= jump) jump = override_pos - 1;
    e = jump;
  }
  return e;
}

/// Event-chain counterpart of RegionRunEndWithOverride.
int EventRunEndWithOverride(const SegScratch& sc,
                            const std::vector<MobilityEvent>& events, int x,
                            int hi, int override_pos,
                            MobilityEvent override_event) {
  const MobilityEvent ev =
      x == override_pos ? override_event : events[x];
  int e = x;
  while (e < hi) {
    const int nx = e + 1;
    const MobilityEvent nev =
        nx == override_pos ? override_event : events[nx];
    if (nev != ev) break;
    if (nx == override_pos) {
      e = nx;
      continue;
    }
    int jump = std::min(hi, sc.event_run_end[nx]);
    if (override_pos > nx && override_pos <= jump) jump = override_pos - 1;
    e = jump;
  }
  return e;
}

/// DISTNUM of the region ids over [s, e] (run-walk with the same
/// kDistinctCap early exit as the scan in features::EventSegmentation).
/// The capped count is order-independent — the scan and the walk visit
/// first occurrences in the same position order — so the result is
/// identical.  skip_solo_pos, when >= 0, drops that position's id unless
/// its run extends beyond it inside [s, e] (the "distinct regions
/// excluding i" set of RegionSegScores); pass -1 for the plain count.
int IndexedDistinctRegions(const SegScratch& sc, int s, int e,
                           int skip_solo_pos, std::vector<RegionId>* ids) {
  ids->clear();
  int x = s;
  while (x <= e) {
    const int re = std::min(e, sc.region_run_end[x]);
    if (!(x == skip_solo_pos && re == skip_solo_pos)) {
      const RegionId r = sc.region_ids[x];
      if (std::find(ids->begin(), ids->end(), r) == ids->end()) {
        ids->push_back(r);
        if (static_cast<int>(ids->size()) >=
            features::internal::kDistinctCap) {
          break;
        }
      }
    }
    x = re + 1;
  }
  return static_cast<int>(ids->size());
}

}  // namespace

void JointScorer::BuildSegIndex(const std::vector<int>& regions,
                                const std::vector<MobilityEvent>& events,
                                SegScratch* scratch) const {
  const int n = g_.size();
  scratch->region_ids.resize(n);
  scratch->event_run_start.resize(n);
  scratch->event_run_end.resize(n);
  scratch->region_run_start.resize(n);
  scratch->region_run_end.resize(n);
  scratch->stay_prefix.resize(n + 1);
  scratch->event_trans_prefix.resize(n);
  scratch->stay_prefix[0] = 0;
  for (int i = 0; i < n; ++i) {
    scratch->region_ids[i] = g_.Candidates(i)[regions[i]];
    scratch->stay_prefix[i + 1] =
        scratch->stay_prefix[i] +
        (events[i] == MobilityEvent::kStay ? 1 : 0);
    scratch->event_trans_prefix[i] =
        i == 0 ? 0
               : scratch->event_trans_prefix[i - 1] +
                     (events[i] != events[i - 1] ? 1 : 0);
    scratch->event_run_start[i] =
        (i > 0 && events[i] == events[i - 1]) ? scratch->event_run_start[i - 1]
                                              : i;
    scratch->region_run_start[i] =
        (i > 0 && scratch->region_ids[i] == scratch->region_ids[i - 1])
            ? scratch->region_run_start[i - 1]
            : i;
  }
  for (int i = n - 1; i >= 0; --i) {
    scratch->event_run_end[i] =
        (i + 1 < n && events[i] == events[i + 1]) ? scratch->event_run_end[i + 1]
                                                  : i;
    scratch->region_run_end[i] =
        (i + 1 < n && scratch->region_ids[i] == scratch->region_ids[i + 1])
            ? scratch->region_run_end[i + 1]
            : i;
  }
}

void JointScorer::EventRun(int i, const std::vector<MobilityEvent>& events,
                           int* s, int* e) const {
  const int n = g_.size();
  *s = i;
  *e = i;
  while (*s > 0 && events[*s - 1] == events[i]) --*s;
  while (*e + 1 < n && events[*e + 1] == events[i]) ++*e;
}

void JointScorer::RegionRun(int i, const std::vector<int>& regions, int* s,
                            int* e) const {
  const int n = g_.size();
  const RegionId region = RegionAt(i, regions, -1, -1);
  *s = i;
  *e = i;
  while (*s > 0 && RegionAt(*s - 1, regions, -1, -1) == region) --*s;
  while (*e + 1 < n && RegionAt(*e + 1, regions, -1, -1) == region) ++*e;
}

void JointScorer::SpaceSegWindow(int i, const std::vector<int>& regions,
                                 int* ws, int* we, RegionId* left,
                                 RegionId* right) const {
  const int n = g_.size();
  *ws = i;
  *we = i;
  *left = kInvalidId;
  *right = kInvalidId;
  if (i > 0) {
    *ws = i - 1;
    *left = RegionAt(i - 1, regions, -1, -1);
    while (*ws > 0 && RegionAt(*ws - 1, regions, -1, -1) == *left) --*ws;
  }
  if (i + 1 < n) {
    *we = i + 1;
    *right = RegionAt(i + 1, regions, -1, -1);
    while (*we + 1 < n && RegionAt(*we + 1, regions, -1, -1) == *right) ++*we;
  }
}

void JointScorer::EventSegWindow(int i, const std::vector<MobilityEvent>& events,
                                 int* ws, int* we) const {
  const int n = g_.size();
  *ws = i;
  *we = i;
  if (i > 0) {
    *ws = i - 1;
    while (*ws > 0 && events[*ws - 1] == events[i - 1]) --*ws;
  }
  if (i + 1 < n) {
    *we = i + 1;
    while (*we + 1 < n && events[*we + 1] == events[i + 1]) ++*we;
  }
}

void JointScorer::AccumulateEventSegments(
    int from, int to, const std::vector<int>& regions,
    const std::vector<MobilityEvent>& events, int r_override_pos,
    int r_override_cand, int e_override_pos, MobilityEvent e_override_event,
    FeatureVec* f) const {
  int s = from;
  while (s <= to) {
    const MobilityEvent ev = EventAt(s, events, e_override_pos,
                                     e_override_event);
    int e = s;
    while (e + 1 <= to &&
           EventAt(e + 1, events, e_override_pos, e_override_event) == ev) {
      ++e;
    }
    const auto seg = features::EventSegmentation(
        g_, s, e, regions, ev, r_override_pos, r_override_cand);
    (*f)[kWEventSeg0] += seg[0];
    (*f)[kWEventSeg1] += seg[1];
    (*f)[kWEventSeg2] += seg[2];
    s = e + 1;
  }
}

void JointScorer::AccumulateSpaceSegments(
    int from, int to, const std::vector<int>& regions,
    const std::vector<MobilityEvent>& events, int r_override_pos,
    int r_override_cand, int e_override_pos, MobilityEvent e_override_event,
    FeatureVec* f) const {
  int s = from;
  while (s <= to) {
    const RegionId region = RegionAt(s, regions, r_override_pos,
                                     r_override_cand);
    int e = s;
    while (e + 1 <= to &&
           RegionAt(e + 1, regions, r_override_pos, r_override_cand) ==
               region) {
      ++e;
    }
    const auto seg = features::SpaceSegmentation(
        g_, s, e, events, e_override_pos, e_override_event);
    (*f)[kWSpaceSeg0] += seg[0];
    (*f)[kWSpaceSeg1] += seg[1];
    (*f)[kWSpaceSeg2] += seg[2];
    s = e + 1;
  }
}

FeatureVec JointScorer::TotalFeatures(
    const std::vector<int>& regions,
    const std::vector<MobilityEvent>& events) const {
  const int n = g_.size();
  assert(static_cast<int>(regions.size()) == n &&
         static_cast<int>(events.size()) == n);
  FeatureVec f = ZeroFeatures();
  for (int i = 0; i < n; ++i) {
    f[kWSpatialMatch] += g_.SpatialMatch(i, regions[i]);
    f[kWEventMatch] += features::EventMatching(g_, i, events[i]);
    if (i + 1 < n) {
      if (s_.use_transition) {
        f[kWSpaceTransition] +=
            features::SpaceTransition(g_, i, regions[i], regions[i + 1]);
        f[kWEventTransition] +=
            features::EventTransition(events[i], events[i + 1]);
      }
      if (s_.use_sync) {
        f[kWSpatialConsistency] +=
            features::SpatialConsistency(g_, i, regions[i], regions[i + 1]);
        f[kWEventConsistency] +=
            features::EventConsistency(g_, i, events[i], events[i + 1]);
      }
    }
  }
  if (s_.use_event_seg) {
    AccumulateEventSegments(0, n - 1, regions, events, -1, -1, -1,
                            MobilityEvent::kStay, &f);
  }
  if (s_.use_space_seg) {
    AccumulateSpaceSegments(0, n - 1, regions, events, -1, -1, -1,
                            MobilityEvent::kStay, &f);
  }
  return f;
}

double JointScorer::TotalScore(const std::vector<double>& weights,
                               const std::vector<int>& regions,
                               const std::vector<MobilityEvent>& events) const {
  return DotFeatures(weights, TotalFeatures(regions, events));
}

FeatureVec JointScorer::RegionNodeFeatures(
    int i, int a, const std::vector<int>& regions,
    const std::vector<MobilityEvent>& events) const {
  const int n = g_.size();
  FeatureVec f = ZeroFeatures();
  f[kWSpatialMatch] += g_.SpatialMatch(i, a);
  if (s_.use_transition) {
    if (i > 0) {
      f[kWSpaceTransition] +=
          features::SpaceTransition(g_, i - 1, regions[i - 1], a);
    }
    if (i + 1 < n) {
      f[kWSpaceTransition] +=
          features::SpaceTransition(g_, i, a, regions[i + 1]);
    }
  }
  if (s_.use_sync) {
    if (i > 0) {
      f[kWSpatialConsistency] +=
          features::SpatialConsistency(g_, i - 1, regions[i - 1], a);
    }
    if (i + 1 < n) {
      f[kWSpatialConsistency] +=
          features::SpatialConsistency(g_, i, a, regions[i + 1]);
    }
  }
  if (s_.use_event_seg) {
    // The event-run containing i is the only f_es clique whose features
    // depend on r_i (through DISTNUM).
    int s, e;
    EventRun(i, events, &s, &e);
    const auto seg =
        features::EventSegmentation(g_, s, e, regions, events[i], i, a);
    f[kWEventSeg0] += seg[0];
    f[kWEventSeg1] += seg[1];
    f[kWEventSeg2] += seg[2];
  }
  if (s_.use_space_seg) {
    // Changing r_i can restructure the region runs; the affected window
    // does not depend on the value of a.
    int ws, we;
    RegionId left, right;
    SpaceSegWindow(i, regions, &ws, &we, &left, &right);
    AccumulateSpaceSegments(ws, we, regions, events, i, a, -1,
                            MobilityEvent::kStay, &f);
  }
  return f;
}

void JointScorer::RegionSegScores(int i, const std::vector<double>& weights,
                                  const std::vector<MobilityEvent>& events,
                                  SegScratch* scratch, double* out) const {
  const int n = g_.size();
  const int da = static_cast<int>(g_.Candidates(i).size());
  std::fill(out, out + da, 0.0);

  if (s_.use_event_seg) {
    // The event-run containing i is the only f_es clique whose features
    // depend on r_i, and only through DISTNUM: the run bounds and the
    // speed / turn terms are shared by every candidate.
    const int s = scratch->event_run_start[i];
    const int e = scratch->event_run_end[i];
    const double speed_norm = features::internal::RunSpeedNorm(g_, s, e);
    const double turn_norm = features::internal::RunTurnNorm(g_, s, e);
    const double sign = 2.0 * PassIndicator(events[i]) - 1.0;
    // Distinct regions of the run *excluding* position i; each candidate
    // then contributes 0 or 1 depending on membership.  Once the base set
    // reaches the cap every candidate's DISTNUM term is exactly 1.0.
    std::vector<RegionId>& base = scratch->distinct;
    IndexedDistinctRegions(*scratch, s, e, /*skip_solo_pos=*/i, &base);
    const bool capped = static_cast<int>(base.size()) >=
                        features::internal::kDistinctCap;
    const double f_speed = sign * speed_norm;
    const double f_turn = sign * -turn_norm;
    for (int a = 0; a < da; ++a) {
      int distinct;
      if (capped) {
        distinct = features::internal::kDistinctCap;
      } else {
        const RegionId r = g_.Candidates(i)[a];
        const bool present =
            std::find(base.begin(), base.end(), r) != base.end();
        distinct = static_cast<int>(base.size()) + (present ? 0 : 1);
      }
      const double f_dist = sign * features::internal::DistinctNorm(distinct);
      // Same accumulation order as the per-candidate bonus loop
      // (kWEventSeg0..2 then kWSpaceSeg0..2), so sums agree bitwise.
      out[a] += weights[kWEventSeg0] * f_dist;
      out[a] += weights[kWEventSeg1] * f_speed;
      out[a] += weights[kWEventSeg2] * f_turn;
    }
  }

  if (s_.use_space_seg) {
    // Same label-independent window as RegionNodeFeatures, looked up from
    // the run index.  Within it the run decomposition only depends on
    // whether the candidate's region equals the left / right neighbor's
    // region, so at most four distinct feature triples exist across the
    // whole candidate set; each class walks the window by whole runs with
    // O(1) per-run features.
    int ws = i, we = i;
    RegionId left = kInvalidId, right = kInvalidId;
    if (i > 0) {
      ws = scratch->region_run_start[i - 1];
      left = scratch->region_ids[i - 1];
    }
    if (i + 1 < n) {
      we = scratch->region_run_end[i + 1];
      right = scratch->region_ids[i + 1];
    }
    double cls[2][2][3];
    bool has_cls[2][2] = {{false, false}, {false, false}};
    for (int a = 0; a < da; ++a) {
      const RegionId r = g_.Candidates(i)[a];
      const int eq_left = (i > 0 && r == left) ? 1 : 0;
      const int eq_right = (i + 1 < n && r == right) ? 1 : 0;
      double* f = cls[eq_left][eq_right];
      if (!has_cls[eq_left][eq_right]) {
        f[0] = f[1] = f[2] = 0.0;
        int x = ws;
        while (x <= we) {
          const int e = RegionRunEndWithOverride(*scratch, x, we, i, r);
          const auto seg = IndexedSpaceSeg(*scratch, events, n, x, e, -1,
                                           MobilityEvent::kStay);
          f[0] += seg[0];
          f[1] += seg[1];
          f[2] += seg[2];
          x = e + 1;
        }
        has_cls[eq_left][eq_right] = true;
      }
      out[a] += weights[kWSpaceSeg0] * f[0];
      out[a] += weights[kWSpaceSeg1] * f[1];
      out[a] += weights[kWSpaceSeg2] * f[2];
    }
  }
}

void JointScorer::EventSegScores(int i, const std::vector<double>& weights,
                                 const std::vector<int>& regions,
                                 const std::vector<MobilityEvent>& events,
                                 SegScratch* scratch, double out[2]) const {
  (void)regions;  // Region labels enter through the index tables.
  const int n = g_.size();
  const MobilityEvent kDomain[2] = {MobilityEvent::kStay,
                                    MobilityEvent::kPass};
  // Both hypothetical labels share the f_es window and the region-run
  // bounds; only the override value differs.
  const int rs = scratch->region_run_start[i];
  const int re = scratch->region_run_end[i];
  const int ws = i > 0 ? scratch->event_run_start[i - 1] : i;
  const int we = i + 1 < n ? scratch->event_run_end[i + 1] : i;
  for (int v = 0; v < 2; ++v) {
    double f_es0 = 0.0, f_es1 = 0.0, f_es2 = 0.0;
    double f_ss0 = 0.0, f_ss1 = 0.0, f_ss2 = 0.0;
    if (s_.use_space_seg) {
      // The region-run containing i is the only f_ss clique whose
      // features depend on e_i.
      const auto seg =
          IndexedSpaceSeg(*scratch, events, n, rs, re, i, kDomain[v]);
      f_ss0 += seg[0];
      f_ss1 += seg[1];
      f_ss2 += seg[2];
    }
    if (s_.use_event_seg) {
      // f_es over the event-run decomposition of the window under the
      // override; same run order and per-run features as the scan, with
      // DISTNUM from the region-run walk.
      int x = ws;
      while (x <= we) {
        const MobilityEvent ev = EventAt(x, events, i, kDomain[v]);
        const int e =
            EventRunEndWithOverride(*scratch, events, x, we, i, kDomain[v]);
        const int distinct =
            IndexedDistinctRegions(*scratch, x, e, -1, &scratch->distinct);
        const double dist_norm = features::internal::DistinctNorm(distinct);
        const double speed_norm = features::internal::RunSpeedNorm(g_, x, e);
        const double turn_norm = features::internal::RunTurnNorm(g_, x, e);
        const double sign = 2.0 * PassIndicator(ev) - 1.0;
        f_es0 += sign * dist_norm;
        f_es1 += sign * speed_norm;
        f_es2 += sign * -turn_norm;
        x = e + 1;
      }
    }
    double bonus = 0.0;
    bonus += weights[kWEventSeg0] * f_es0;
    bonus += weights[kWEventSeg1] * f_es1;
    bonus += weights[kWEventSeg2] * f_es2;
    bonus += weights[kWSpaceSeg0] * f_ss0;
    bonus += weights[kWSpaceSeg1] * f_ss1;
    bonus += weights[kWSpaceSeg2] * f_ss2;
    out[v] = bonus;
  }
}

FeatureVec JointScorer::EventNodeFeatures(
    int i, MobilityEvent v, const std::vector<int>& regions,
    const std::vector<MobilityEvent>& events) const {
  const int n = g_.size();
  FeatureVec f = ZeroFeatures();
  f[kWEventMatch] += features::EventMatching(g_, i, v);
  if (s_.use_transition) {
    if (i > 0) {
      f[kWEventTransition] += features::EventTransition(events[i - 1], v);
    }
    if (i + 1 < n) {
      f[kWEventTransition] += features::EventTransition(v, events[i + 1]);
    }
  }
  if (s_.use_sync) {
    if (i > 0) {
      f[kWEventConsistency] +=
          features::EventConsistency(g_, i - 1, events[i - 1], v);
    }
    if (i + 1 < n) {
      f[kWEventConsistency] +=
          features::EventConsistency(g_, i, v, events[i + 1]);
    }
  }
  if (s_.use_space_seg) {
    // The region-run containing i is the only f_ss clique whose features
    // depend on e_i.
    int s, e;
    RegionRun(i, regions, &s, &e);
    const auto seg = features::SpaceSegmentation(g_, s, e, events, i, v);
    f[kWSpaceSeg0] += seg[0];
    f[kWSpaceSeg1] += seg[1];
    f[kWSpaceSeg2] += seg[2];
  }
  if (s_.use_event_seg) {
    // Changing e_i can split or merge event runs inside a stable window.
    int ws, we;
    EventSegWindow(i, events, &ws, &we);
    AccumulateEventSegments(ws, we, regions, events, -1, -1, i, v, &f);
  }
  return f;
}

}  // namespace c2mn
