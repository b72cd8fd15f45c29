// Oracles for the sequence-graph unroll on the mall scenario:
//  * RegionIndex::NearestRegionsInto (squared-distance best-first R-tree
//    traversal) against a brute-force exact-distance sort over every
//    partition of the floor;
//  * SequenceGraph candidates and f_sm bits against a straightforward
//    reference unroll (brute-force candidates, per-partition pow());
//  * OnlineAnnotator, which carries the unroll of its kept records from
//    one decode to the next, against C2mnAnnotator::AnnotateInto over the
//    same windows with no carry.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <map>
#include <vector>

#include <gtest/gtest.h>

#include "core/online_annotator.h"
#include "core/trainer.h"
#include "data/dataset.h"
#include "geometry/circle_overlap.h"
#include "obs/metrics_registry.h"
#include "tests/test_util.h"

namespace c2mn {
namespace {

uint64_t Bits(double v) {
  uint64_t b;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

/// The `k` nearest regions on `p.floor` within `max_distance`, by sorting
/// every region's exact (hypot-based) distance; ties keep region order.
std::vector<RegionIndex::RegionDistance> BruteForceNearest(
    const Floorplan& plan, const IndoorPoint& p, size_t k,
    double max_distance) {
  std::vector<RegionIndex::RegionDistance> all;
  if (p.floor < 0 || p.floor >= plan.num_floors()) return all;
  for (RegionId r = 0; r < static_cast<RegionId>(plan.regions().size());
       ++r) {
    // 1e300 marks a region with no footprint on this floor.
    const double d = plan.DistanceToRegionOnFloor(p, r);
    if (d < 1e300 && d <= max_distance) all.push_back({r, d});
  }
  std::stable_sort(all.begin(), all.end(),
                   [](const RegionIndex::RegionDistance& a,
                      const RegionIndex::RegionDistance& b) {
                     return a.distance < b.distance;
                   });
  if (all.size() > k) all.resize(k);
  return all;
}

/// SequenceGraph's smoothing, restated: 3-point moving average, majority
/// floor among non-negative floors (ties to the smallest), else the
/// record's own floor.
IndoorPoint ReferenceSmoothed(const PSequence& seq, int i) {
  const int n = static_cast<int>(seq.size());
  const int lo = std::max(0, i - 1);
  const int hi = std::min(n - 1, i + 1);
  Vec2 mean{0, 0};
  std::map<int, int> votes;
  for (int j = lo; j <= hi; ++j) {
    mean = mean + seq[j].location.xy;
    if (seq[j].location.floor >= 0) ++votes[seq[j].location.floor];
  }
  mean = mean / static_cast<double>(hi - lo + 1);
  int floor = seq[i].location.floor;
  int best = 0;
  for (const auto& [f, v] : votes) {
    if (v > best) {
      best = v;
      floor = f;
    }
  }
  return IndoorPoint(mean, floor);
}

struct ReferenceRecord {
  std::vector<RegionId> candidates;
  std::vector<double> fsm;
};

/// The unroll of one record, computed the straightforward way.
ReferenceRecord ReferenceUnroll(const World& world, const FeatureOptions& o,
                                const IndoorPoint& loc, RegionId truth) {
  const Floorplan& plan = world.plan();
  ReferenceRecord rec;
  for (const auto& rd :
       BruteForceNearest(plan, loc, o.candidate_k, o.candidate_max_distance)) {
    rec.candidates.push_back(rd.region);
  }
  if (o.cross_floor_candidates) {
    for (int df : {-1, 1}) {
      for (const auto& rd :
           BruteForceNearest(plan, IndoorPoint(loc.xy, loc.floor + df),
                             o.cross_floor_k, o.cross_floor_max_distance)) {
        if (std::find(rec.candidates.begin(), rec.candidates.end(),
                      rd.region) == rec.candidates.end()) {
          rec.candidates.push_back(rd.region);
        }
      }
    }
  }
  if (rec.candidates.empty()) {
    const auto nearest = BruteForceNearest(plan, loc, 1, 1e300);
    rec.candidates.push_back(nearest.empty() ? 0 : nearest.front().region);
  }
  if (truth != kInvalidId &&
      std::find(rec.candidates.begin(), rec.candidates.end(), truth) ==
          rec.candidates.end()) {
    rec.candidates.push_back(truth);
  }
  const double v = o.uncertainty_radius_v;
  double sum = 0.0;
  for (RegionId r : rec.candidates) {
    double overlap = 0.0;
    for (PartitionId pid : plan.region(r).partitions) {
      const Partition& part = plan.partition(pid);
      overlap += CirclePolygonIntersectionArea(loc.xy, v, part.shape) *
                 std::pow(o.floor_mismatch_discount,
                          std::abs(part.floor - loc.floor));
    }
    rec.fsm.push_back(overlap / (M_PI * v * v));
    sum += rec.fsm.back();
  }
  if (o.normalize_fsm && sum > 1e-12) {
    for (double& f : rec.fsm) f /= sum;
  }
  return rec;
}

void ExpectGraphMatchesReference(const World& world, const FeatureOptions& o,
                                 const PSequence& seq,
                                 const LabelSequence* truth,
                                 const SequenceGraph& graph) {
  ASSERT_EQ(graph.size(), static_cast<int>(seq.size()));
  for (int i = 0; i < graph.size(); ++i) {
    const IndoorPoint loc = ReferenceSmoothed(seq, i);
    const ReferenceRecord ref = ReferenceUnroll(
        world, o, loc, truth != nullptr ? truth->regions[i] : kInvalidId);
    const CandidateSpan cands = graph.Candidates(i);
    ASSERT_EQ(std::vector<RegionId>(cands.begin(), cands.end()),
              ref.candidates)
        << "record " << i;
    for (size_t a = 0; a < ref.fsm.size(); ++a) {
      ASSERT_EQ(Bits(graph.SpatialMatch(i, static_cast<int>(a))),
                Bits(ref.fsm[a]))
          << "record " << i << " candidate " << a;
    }
  }
}

class GraphEquivalenceTest : public ::testing::Test {
 protected:
  GraphEquivalenceTest() : scenario_(testing_util::SmallMallScenario()) {}

  const World& world() const { return *scenario_.world; }

  const Scenario& scenario_;
};

TEST_F(GraphEquivalenceTest, NearestRegionsMatchBruteForceSort) {
  const Floorplan& plan = world().plan();
  Rng rng(17);
  std::vector<IndoorPoint> points;
  for (FloorId f = 0; f < plan.num_floors(); ++f) {
    BoundingBox extent;
    for (PartitionId pid : plan.PartitionsOnFloor(f)) {
      extent.Extend(plan.partition(pid).shape.bbox());
    }
    // Uniform points over the floor plus a margin outside the building.
    for (int q = 0; q < 150; ++q) {
      points.emplace_back(
          Vec2{rng.Uniform(extent.min.x - 15, extent.max.x + 15),
               rng.Uniform(extent.min.y - 15, extent.max.y + 15)},
          f);
    }
  }
  for (const LabeledSequence& ls : scenario_.dataset.sequences) {
    for (const PositioningRecord& r : ls.sequence.records) {
      points.push_back(r.location);
    }
  }
  std::vector<RegionIndex::RegionDistance> got;
  size_t checked = 0;
  for (const IndoorPoint& p : points) {
    for (size_t k : {1, 2, 6}) {
      for (double max_distance : {10.0, 40.0, 1e300}) {
        world().index().NearestRegionsInto(p, k, max_distance, &got);
        const auto want = BruteForceNearest(plan, p, k, max_distance);
        ASSERT_EQ(got.size(), want.size())
            << "k=" << k << " max=" << max_distance;
        for (size_t i = 0; i < want.size(); ++i) {
          ASSERT_EQ(got[i].region, want[i].region)
              << "rank " << i << " k=" << k << " max=" << max_distance;
          EXPECT_NEAR(got[i].distance, want[i].distance, 1e-9);
        }
        ++checked;
      }
    }
  }
  EXPECT_GT(checked, 9u * 1000u);
}

TEST_F(GraphEquivalenceTest, SquaredBboxRejectMatchesHypotReject) {
  // CirclePolygonIntersectionArea rejects on squared distances; it must
  // reject exactly when the bbox distance (hypot) reaches the radius,
  // including radii within rounding of that distance.
  const Polygon rect = Polygon::Rectangle({0, 0}, {4, 3});
  Rng rng(23);
  for (int q = 0; q < 2000; ++q) {
    const Vec2 c{rng.Uniform(-8, 12), rng.Uniform(-8, 11)};
    const double d = rect.bbox().Distance(c);
    for (double r : {d, std::nextafter(d, 0.0), std::nextafter(d, 1e9),
                     d * (1 + 1e-13), d * (1 - 1e-13)}) {
      if (r <= 0.0) continue;
      const double area = CirclePolygonIntersectionArea(c, r, rect);
      if (rect.bbox().Distance(c) >= r) EXPECT_EQ(area, 0.0);
    }
  }
}

TEST_F(GraphEquivalenceTest, GraphMatchesReferenceUnroll) {
  const FeatureOptions fopts;
  SequenceGraph graph;
  int sequences = 0;
  for (const LabeledSequence& ls : scenario_.dataset.sequences) {
    if (++sequences > 6) break;
    // Whole sequence, inference and training (truth-injected) flavors.
    graph.Rebuild(world(), ls.sequence, fopts, nullptr);
    ExpectGraphMatchesReference(world(), fopts, ls.sequence, nullptr, graph);
    graph.Rebuild(world(), ls.sequence, fopts, &ls.labels);
    ExpectGraphMatchesReference(world(), fopts, ls.sequence, &ls.labels,
                                graph);
    // A 24-record window in the middle.
    if (ls.size() > 40) {
      PSequence window;
      window.records.assign(ls.sequence.records.begin() + 10,
                            ls.sequence.records.begin() + 34);
      graph.Rebuild(world(), window, fopts, nullptr);
      ExpectGraphMatchesReference(world(), fopts, window, nullptr, graph);
    }
  }
}

TEST_F(GraphEquivalenceTest, CarryIsIgnoredWhenTruthIsInjected) {
  const FeatureOptions fopts;
  const LabeledSequence& ls = scenario_.dataset.sequences.front();
  SequenceGraph graph;
  graph.Rebuild(world(), ls.sequence, fopts, nullptr);
  UnrollCarry carry;
  carry.Keep(graph, 0);
  graph.Rebuild(world(), ls.sequence, fopts, &ls.labels, &carry);
  EXPECT_EQ(graph.records_reused(), 0);
  ExpectGraphMatchesReference(world(), fopts, ls.sequence, &ls.labels, graph);
  // Without truth injection every record of the same sequence is reused.
  graph.Rebuild(world(), ls.sequence, fopts, nullptr, &carry);
  EXPECT_EQ(graph.records_reused(), graph.size());
  ExpectGraphMatchesReference(world(), fopts, ls.sequence, nullptr, graph);
}

/// Per-record labels of the carry-free reference: the OnlineAnnotator
/// window schedule replayed with C2mnAnnotator::AnnotateInto on a fresh
/// sequence each decode (no unroll carry anywhere).
class StreamReference {
 public:
  StreamReference(const C2mnAnnotator& annotator,
                  OnlineAnnotator::Options options)
      : annotator_(annotator), options_(options.Validated()) {}

  void Push(const PositioningRecord& record) {
    window_.push_back(record);
    dirty_ = true;
    ++since_;
    if (static_cast<int>(window_.size()) >= options_.window_records &&
        since_ >= options_.decode_stride) {
      Decode(options_.finalize_lag);
      since_ = 0;
    }
  }

  /// Mirrors OnlineAnnotator::FlushInto: an unchanged window finalizes
  /// its cached provisional labels instead of re-decoding.
  void Flush() {
    if (!dirty_) {
      for (size_t i = 0; i < window_.size(); ++i) {
        regions_.push_back(provisional_.regions[i]);
        events_.push_back(provisional_.events[i]);
      }
      window_.clear();
    } else {
      Decode(0);
    }
    since_ = 0;
    dirty_ = true;
  }

  std::vector<RegionId> regions_;
  std::vector<MobilityEvent> events_;

 private:
  void Decode(int keep) {
    if (window_.empty()) return;
    PSequence seq;
    seq.records = window_;
    DecodeWorkspace ws;
    LabelSequence labels;
    annotator_.AnnotateInto(seq, &ws, &labels);
    const int freeze = static_cast<int>(window_.size()) - keep;
    for (int i = 0; i < freeze; ++i) {
      regions_.push_back(labels.regions[i]);
      events_.push_back(labels.events[i]);
    }
    provisional_.regions.assign(labels.regions.begin() + freeze,
                                labels.regions.end());
    provisional_.events.assign(labels.events.begin() + freeze,
                               labels.events.end());
    window_.erase(window_.begin(), window_.begin() + freeze);
    dirty_ = false;
  }

  const C2mnAnnotator& annotator_;
  OnlineAnnotator::Options options_;
  std::vector<PositioningRecord> window_;
  int since_ = 0;
  bool dirty_ = true;
  LabelSequence provisional_;
};

/// Expands emitted m-semantics over their support into per-record labels.
void AppendExpanded(const std::vector<MSemantics>& emitted,
                    std::vector<RegionId>* regions,
                    std::vector<MobilityEvent>* events) {
  for (const MSemantics& ms : emitted) {
    for (int s = 0; s < ms.support; ++s) {
      regions->push_back(ms.region);
      events->push_back(ms.event);
    }
  }
}

class CarryEquivalenceTest : public GraphEquivalenceTest {
 protected:
  CarryEquivalenceTest() {
    Rng rng(7);
    const TrainTestSplit split = SplitDataset(scenario_.dataset, 0.7, &rng);
    TrainOptions topts;
    topts.max_iter = 8;
    topts.mcmc_samples = 10;
    AlternateTrainer trainer(world(), FeatureOptions{}, C2mnStructure{},
                             topts);
    weights_ = trainer.Train(split.train).weights;
  }

  static uint64_t ReusedTotal() {
    return obs::MetricsRegistry::Global()
        .GetCounter("c2mn_graph_records_reused_total", "")
        ->Value();
  }

  /// The longest sequences carry the most decodes.
  std::vector<const LabeledSequence*> LongestSequences(size_t n) const {
    std::vector<const LabeledSequence*> seqs;
    for (const LabeledSequence& ls : scenario_.dataset.sequences) {
      seqs.push_back(&ls);
    }
    std::sort(seqs.begin(), seqs.end(),
              [](const LabeledSequence* a, const LabeledSequence* b) {
                return a->size() > b->size();
              });
    seqs.resize(std::min(n, seqs.size()));
    return seqs;
  }

  std::vector<double> weights_;
};

TEST_F(CarryEquivalenceTest, OnlineMatchesCarryFreeAnnotateInto) {
  const C2mnAnnotator annotator(world(), FeatureOptions{}, C2mnStructure{},
                                weights_);
  for (const OnlineAnnotator::Options windows :
       {OnlineAnnotator::Options{80, 10, 5},
        OnlineAnnotator::Options{24, 6, 4}}) {
    const uint64_t reused_before = ReusedTotal();
    // One annotator across all sequences: every Flush restarts the stream
    // and must drop the carry.
    OnlineAnnotator online(world(), FeatureOptions{}, C2mnStructure{},
                           weights_, windows);
    for (const LabeledSequence* ls : LongestSequences(4)) {
      StreamReference ref(annotator, windows);
      std::vector<RegionId> regions;
      std::vector<MobilityEvent> events;
      for (const PositioningRecord& r : ls->sequence.records) {
        AppendExpanded(online.Push(r), &regions, &events);
        ref.Push(r);
      }
      AppendExpanded(online.Flush(), &regions, &events);
      ref.Flush();
      ASSERT_EQ(regions, ref.regions_) << "window " << windows.window_records;
      ASSERT_EQ(events, ref.events_) << "window " << windows.window_records;
    }
    EXPECT_GT(ReusedTotal(), reused_before)
        << "the carry never hit at window " << windows.window_records;
  }
}

TEST_F(CarryEquivalenceTest, InterleavedSessionsOnSharedWorkspace) {
  const C2mnAnnotator annotator(world(), FeatureOptions{}, C2mnStructure{},
                                weights_);
  const OnlineAnnotator::Options windows{24, 6, 4};
  const std::vector<const LabeledSequence*> seqs = LongestSequences(2);
  ASSERT_EQ(seqs.size(), 2u);
  OnlineAnnotator a(world(), FeatureOptions{}, C2mnStructure{}, weights_,
                    windows);
  OnlineAnnotator b(world(), FeatureOptions{}, C2mnStructure{}, weights_,
                    windows);
  OnlineAnnotator* sessions[2] = {&a, &b};
  StreamReference ref_a(annotator, windows);
  StreamReference ref_b(annotator, windows);
  StreamReference* refs[2] = {&ref_a, &ref_b};
  // One workspace shared by both sessions, as on a service shard.
  DecodeWorkspace shared;
  std::vector<RegionId> regions[2];
  std::vector<MobilityEvent> events[2];
  std::vector<MSemantics> emitted;
  const size_t longest = std::max(seqs[0]->size(), seqs[1]->size());
  for (size_t i = 0; i < longest; ++i) {
    for (int s = 0; s < 2; ++s) {
      if (i >= seqs[s]->size()) continue;
      const PositioningRecord& r = seqs[s]->sequence.records[i];
      if (sessions[s]->PushBuffered(r)) {
        sessions[s]->CompleteDecode(&shared, &emitted);
        AppendExpanded(emitted, &regions[s], &events[s]);
      }
      refs[s]->Push(r);
    }
  }
  for (int s = 0; s < 2; ++s) {
    sessions[s]->FlushInto(&shared, &emitted);
    AppendExpanded(emitted, &regions[s], &events[s]);
    refs[s]->Flush();
    EXPECT_EQ(regions[s], refs[s]->regions_) << "session " << s;
    EXPECT_EQ(events[s], refs[s]->events_) << "session " << s;
  }
}

}  // namespace
}  // namespace c2mn
