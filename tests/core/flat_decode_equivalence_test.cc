// The tentpole invariant of the flat arena-backed inference core: the
// overlay-based ICM decode must make exactly the decisions of the legacy
// implementation that deep-copied the full ChainPotentials once per sweep
// and re-scored every candidate through RegionNodeFeatures.  This file
// replays that legacy implementation verbatim and compares label-for-label.

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "core/annotator.h"
#include "core/trainer.h"
#include "crf/chain_model.h"
#include "data/dataset.h"
#include "tests/test_util.h"

namespace c2mn {
namespace {

/// Legacy deep-copy ICM decode of the region chain (pre-flat annotator.cc),
/// kept as the reference the overlay path is checked against.
std::vector<int> LegacyDecodeRegions(const JointScorer& scorer,
                                     const std::vector<double>& weights,
                                     const C2mnStructure& structure,
                                     const InferenceOptions& iopts,
                                     const std::vector<MobilityEvent>& events) {
  const SequenceGraph& g = scorer.graph();
  const int n = g.size();
  ChainPotentials pots;
  pots.node.resize(n);
  pots.edge.resize(n - 1);
  for (int i = 0; i < n; ++i) {
    const size_t da = g.Candidates(i).size();
    pots.node[i].resize(da);
    for (size_t a = 0; a < da; ++a) {
      pots.node[i][a] =
          weights[kWSpatialMatch] * g.SpatialMatch(i, static_cast<int>(a));
    }
    if (i + 1 < n) {
      const size_t db = g.Candidates(i + 1).size();
      pots.edge[i].assign(da, std::vector<double>(db, 0.0));
      for (size_t a = 0; a < da; ++a) {
        for (size_t b = 0; b < db; ++b) {
          double s = 0.0;
          if (structure.use_transition) {
            s += weights[kWSpaceTransition] *
                 features::SpaceTransition(g, i, static_cast<int>(a),
                                           static_cast<int>(b));
          }
          if (structure.use_sync) {
            s += weights[kWSpatialConsistency] *
                 features::SpatialConsistency(g, i, static_cast<int>(a),
                                              static_cast<int>(b));
          }
          pots.edge[i][a][b] = s;
        }
      }
    }
  }
  auto decode = [&](const ChainPotentials& p) {
    const ChainModel chain(p);
    if (iopts.use_max_marginals) {
      const auto marginals = chain.Marginals();
      std::vector<int> out(n);
      for (int i = 0; i < n; ++i) {
        out[i] = static_cast<int>(
            std::max_element(marginals[i].begin(), marginals[i].end()) -
            marginals[i].begin());
      }
      return out;
    }
    return chain.Viterbi();
  };
  std::vector<int> regions = decode(pots);

  if (!structure.use_event_seg && !structure.use_space_seg) return regions;
  const bool seg_on =
      weights[kWEventSeg0] != 0.0 || weights[kWEventSeg1] != 0.0 ||
      weights[kWEventSeg2] != 0.0 || weights[kWSpaceSeg0] != 0.0 ||
      weights[kWSpaceSeg1] != 0.0 || weights[kWSpaceSeg2] != 0.0;
  if (!seg_on) return regions;
  for (int sweep = 0; sweep < iopts.icm_sweeps; ++sweep) {
    ChainPotentials augmented = pots;  // The O(n·d²) deep copy per sweep.
    for (int i = 0; i < n; ++i) {
      const size_t da = g.Candidates(i).size();
      for (size_t a = 0; a < da; ++a) {
        const FeatureVec f = scorer.RegionNodeFeatures(
            i, static_cast<int>(a), regions, events);
        double bonus = 0.0;
        for (int k : {kWEventSeg0, kWEventSeg1, kWEventSeg2, kWSpaceSeg0,
                      kWSpaceSeg1, kWSpaceSeg2}) {
          bonus += weights[k] * f[k];
        }
        augmented.node[i][a] += bonus;
      }
    }
    std::vector<int> next = decode(augmented);
    if (next == regions) break;
    regions = std::move(next);
  }
  return regions;
}

/// Legacy deep-copy ICM decode of the event chain.
std::vector<MobilityEvent> LegacyDecodeEvents(
    const JointScorer& scorer, const std::vector<double>& weights,
    const C2mnStructure& structure, const InferenceOptions& iopts,
    const std::vector<int>& regions) {
  const SequenceGraph& g = scorer.graph();
  const int n = g.size();
  const MobilityEvent kDomain[2] = {MobilityEvent::kStay,
                                    MobilityEvent::kPass};
  ChainPotentials pots;
  pots.node.resize(n);
  pots.edge.resize(n - 1);
  for (int i = 0; i < n; ++i) {
    pots.node[i].resize(2);
    for (int v = 0; v < 2; ++v) {
      pots.node[i][v] =
          weights[kWEventMatch] * features::EventMatching(g, i, kDomain[v]);
    }
    if (i + 1 < n) {
      pots.edge[i].assign(2, std::vector<double>(2, 0.0));
      for (int a = 0; a < 2; ++a) {
        for (int b = 0; b < 2; ++b) {
          double s = 0.0;
          if (structure.use_transition) {
            s += weights[kWEventTransition] *
                 features::EventTransition(kDomain[a], kDomain[b]);
          }
          if (structure.use_sync) {
            s += weights[kWEventConsistency] *
                 features::EventConsistency(g, i, kDomain[a], kDomain[b]);
          }
          pots.edge[i][a][b] = s;
        }
      }
    }
  }
  auto decode = [&](const ChainPotentials& p) {
    const ChainModel chain(p);
    std::vector<int> out;
    if (iopts.use_max_marginals) {
      const auto marginals = chain.Marginals();
      out.resize(n);
      for (int i = 0; i < n; ++i) {
        out[i] = marginals[i][0] >= marginals[i][1] ? 0 : 1;
      }
    } else {
      out = chain.Viterbi();
    }
    return out;
  };
  std::vector<int> decoded = decode(pots);
  std::vector<MobilityEvent> events(n);
  for (int i = 0; i < n; ++i) events[i] = kDomain[decoded[i]];

  if (!structure.use_event_seg && !structure.use_space_seg) return events;
  for (int sweep = 0; sweep < iopts.icm_sweeps; ++sweep) {
    ChainPotentials augmented = pots;
    for (int i = 0; i < n; ++i) {
      for (int v = 0; v < 2; ++v) {
        const FeatureVec f =
            scorer.EventNodeFeatures(i, kDomain[v], regions, events);
        double bonus = 0.0;
        for (int k : {kWEventSeg0, kWEventSeg1, kWEventSeg2, kWSpaceSeg0,
                      kWSpaceSeg1, kWSpaceSeg2}) {
          bonus += weights[k] * f[k];
        }
        augmented.node[i][v] += bonus;
      }
    }
    const std::vector<int> next = decode(augmented);
    bool changed = false;
    for (int i = 0; i < n; ++i) {
      if (events[i] != kDomain[next[i]]) {
        events[i] = kDomain[next[i]];
        changed = true;
      }
    }
    if (!changed) break;
  }
  return events;
}

/// Full legacy alternating decode.
void LegacyDecode(const SequenceGraph& graph,
                  const std::vector<double>& weights,
                  const C2mnStructure& structure,
                  const InferenceOptions& iopts, std::vector<int>* regions,
                  std::vector<MobilityEvent>* events) {
  const JointScorer scorer(graph, structure);
  *events = graph.InitialEvents();
  const int rounds = structure.IsCoupled() ? iopts.alternation_rounds : 1;
  for (int round = 0; round < rounds; ++round) {
    *regions = LegacyDecodeRegions(scorer, weights, structure, iopts, *events);
    *events = LegacyDecodeEvents(scorer, weights, structure, iopts, *regions);
  }
}

class FlatDecodeEquivalenceTest : public ::testing::Test {
 protected:
  FlatDecodeEquivalenceTest() : scenario_(testing_util::SmallMallScenario()) {
    Rng rng(7);
    split_ = SplitDataset(scenario_.dataset, 0.7, &rng);
    TrainOptions topts;
    topts.max_iter = 12;
    topts.mcmc_samples = 12;
    AlternateTrainer trainer(*scenario_.world, FeatureOptions{},
                             C2mnStructure{}, topts);
    weights_ = trainer.Train(split_.train).weights;
  }

  const Scenario& scenario_;
  TrainTestSplit split_;
  std::vector<double> weights_;
  FeatureOptions fopts_;
};

TEST_F(FlatDecodeEquivalenceTest, OverlayIcmMatchesDeepCopyIcmExactly) {
  for (const bool use_max_marginals : {true, false}) {
    InferenceOptions iopts;
    iopts.use_max_marginals = use_max_marginals;
    const C2mnStructure structure;
    const C2mnAnnotator annotator(*scenario_.world, FeatureOptions{},
                                  structure, weights_, iopts);
    DecodeWorkspace ws;
    int checked = 0;
    for (const LabeledSequence* ls : split_.test) {
      if (ls->sequence.empty()) continue;
      SequenceGraph graph(*scenario_.world, ls->sequence, fopts_, nullptr);
      std::vector<int> flat_regions;
      std::vector<MobilityEvent> flat_events;
      annotator.Decode(graph, &ws, &flat_regions, &flat_events);

      std::vector<int> legacy_regions;
      std::vector<MobilityEvent> legacy_events;
      LegacyDecode(graph, weights_, structure, iopts, &legacy_regions,
                   &legacy_events);

      EXPECT_EQ(flat_regions, legacy_regions)
          << "region decisions diverged (max_marginals="
          << use_max_marginals << ")";
      EXPECT_TRUE(std::equal(flat_events.begin(), flat_events.end(),
                             legacy_events.begin()))
          << "event decisions diverged (max_marginals="
          << use_max_marginals << ")";
      if (++checked >= 6) break;  // Half a dozen sequences per mode suffice.
    }
    ASSERT_GT(checked, 0);
  }
}

TEST_F(FlatDecodeEquivalenceTest, BatchedSegScoresMatchPerCandidateExactly) {
  const C2mnStructure structure;
  Rng rng(29);
  int checked_positions = 0;
  for (const LabeledSequence* ls : split_.test) {
    if (ls->sequence.empty()) continue;
    SequenceGraph g(*scenario_.world, ls->sequence, fopts_, nullptr);
    const JointScorer scorer(g, structure);
    const int n = g.size();
    // A random-but-valid configuration exercises run boundaries that the
    // decoded optimum would smooth away.
    std::vector<int> regions(n);
    std::vector<MobilityEvent> events(n);
    for (int i = 0; i < n; ++i) {
      regions[i] = static_cast<int>(rng.UniformInt(
          static_cast<uint64_t>(g.Candidates(i).size())));
      events[i] = rng.Bernoulli(0.5) ? MobilityEvent::kStay
                                     : MobilityEvent::kPass;
    }
    SegScratch scratch;
    scorer.BuildSegIndex(regions, events, &scratch);
    std::vector<double> batched;
    for (int i = 0; i < n; ++i) {
      const int da = static_cast<int>(g.Candidates(i).size());
      batched.assign(da, 0.0);
      scorer.RegionSegScores(i, weights_, events, &scratch, batched.data());
      for (int a = 0; a < da; ++a) {
        const FeatureVec f = scorer.RegionNodeFeatures(i, a, regions, events);
        double bonus = 0.0;
        for (int k : {kWEventSeg0, kWEventSeg1, kWEventSeg2, kWSpaceSeg0,
                      kWSpaceSeg1, kWSpaceSeg2}) {
          bonus += weights_[k] * f[k];
        }
        EXPECT_DOUBLE_EQ(batched[a], bonus) << "position " << i << " cand " << a;
      }
      double event_scores[2];
      scorer.EventSegScores(i, weights_, regions, events, &scratch,
                            event_scores);
      const MobilityEvent kDomain[2] = {MobilityEvent::kStay,
                                        MobilityEvent::kPass};
      for (int v = 0; v < 2; ++v) {
        const FeatureVec f =
            scorer.EventNodeFeatures(i, kDomain[v], regions, events);
        double bonus = 0.0;
        for (int k : {kWEventSeg0, kWEventSeg1, kWEventSeg2, kWSpaceSeg0,
                      kWSpaceSeg1, kWSpaceSeg2}) {
          bonus += weights_[k] * f[k];
        }
        EXPECT_DOUBLE_EQ(event_scores[v], bonus)
            << "position " << i << " event " << v;
      }
      ++checked_positions;
    }
    if (checked_positions > 300) break;
  }
  ASSERT_GT(checked_positions, 0);
}

TEST_F(FlatDecodeEquivalenceTest, WorkspaceReuseIsDeterministic) {
  const C2mnAnnotator annotator(*scenario_.world, FeatureOptions{},
                                C2mnStructure{}, weights_);
  const LabeledSequence& ls = *split_.test.front();
  const LabelSequence fresh = annotator.Annotate(ls.sequence);
  DecodeWorkspace ws;
  LabelSequence reused;
  for (int round = 0; round < 3; ++round) {
    annotator.AnnotateInto(ls.sequence, &ws, &reused);
    EXPECT_EQ(reused.regions, fresh.regions) << "round " << round;
    EXPECT_TRUE(std::equal(reused.events.begin(), reused.events.end(),
                           fresh.events.begin()))
        << "round " << round;
  }
}

}  // namespace
}  // namespace c2mn
